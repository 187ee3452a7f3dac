// Sequential task flow (STF) executor: the numeric work of a phase, run
// off the simulating thread in submission order per buffer (DESIGN.md
// §4n).
//
// The simulated clock never reads a value, so the simulation can run
// ahead of the bytes. Every action that touches bytes during factorize()
// and solve() (a kernel, an update's kernel and scatter, an rget or copy
// memcpy, an eager payload copy, an aggregate's zero-fill or apply, the
// delete[] of a freed buffer) is submitted with the buffers it reads and
// writes, named by base address. An action runs once every earlier
// action on each of its buffers has run: readers of a buffer may overlap,
// a writer waits for every earlier reader and writer, and a reader for
// the earlier writer. Each buffer therefore sees its reads and writes in
// submission order, so every byte is the inline run's, bit for bit. The
// simulating thread keeps all the accounting.
//
// Lanes. An action joins the lane its first written buffer hashes to, and
// a lane runs its actions in submission order, on one thread at a time;
// so successive writes to a buffer are ordered by their lane alone. The
// submitter records, per buffer, the lane action that last wrote it and
// the last action of each lane that read it since; an action carries as
// dependencies the action counts other lanes must have run before it
// may. A worker takes a lane whose next action's dependencies are met
// and runs the lane as far as it can. Every dependency points at an
// earlier action, so the earliest pending action can always run.
//
// Cost: an action is a few microseconds of work on average, so the
// hand-off must cost far less, and what it costs is mostly cache lines
// moving between cores. One thread submits (the simulating thread; it
// also calls wait() and join()) and alone owns the buffer records, which
// hold only integers. A lane is a ring the submitter writes and one
// worker at a time reads; the submitter publishes a lane's new actions
// with one store, kBatch at a time, or at once when another lane's action
// depends on one, or when it waits. An idle worker spins before it
// sleeps, so a submit rarely makes a system call; a small action (a free,
// a thin solve GEMM) whose buffers have nothing in flight runs at once on
// the submitting thread; and the submitter destroys an action's closure
// when it reuses the slot, so no closure is freed off its thread.
//
// Failures: an action that throws is recorded with its submission index;
// join() rethrows the earliest one in submission order, which is the one
// the inline run would have thrown first. wait() only blocks.
//
// Memory: at most kLanes * `capacity` actions are submitted but not yet
// run (they hold the raw pointers of buffers whose delete[] is deferred
// behind them). A submitter that finds a lane's ring full, or a caller of
// wait(), runs ready actions itself until it may go on.
//
// Zero workers: submit() runs the action on the calling thread before it
// returns, and an exception propagates from it as in the inline run. That
// is how the threaded driver uses it: every rank thread runs its own
// actions, and no executor state is shared.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "pgas/runtime.hpp"

namespace sympack::core::taskrt {

class Executor final : public pgas::ActionSink {
 public:
  /// Runs on the thread about to execute an action, with the action's
  /// submission index (tests inject adversarial delays through it).
  using BeforeAction = std::function<void(std::uint64_t seq)>;
  static constexpr int kLanes = 64;
  /// Default ring size per lane: actions submitted but not yet run.
  static constexpr std::size_t kCapacity = 256;
  /// Actions a lane collects before the submitter publishes them.
  static constexpr std::uint64_t kBatch = 8;
  /// Work (flops or bytes) below which an action whose buffers have
  /// nothing in flight runs at submission: handing it off would cost
  /// more than running it.
  static constexpr std::size_t kInlineWork = 1 << 14;

  /// Starts `workers` threads (0: run every action at submission).
  explicit Executor(int workers, std::size_t capacity = kCapacity,
                    BeforeAction before = {});
  /// Waits for every action, then stops the workers.
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// The solver's worker count: none under the threaded driver (every
  /// rank thread runs its own actions), else one per hardware thread
  /// besides the simulating one.
  [[nodiscard]] static int default_workers(bool threaded);
  [[nodiscard]] int workers() const {
    return static_cast<int>(threads_.size());
  }

  void submit(std::function<void()> action,
              std::initializer_list<pgas::Access> buffers,
              std::size_t work) override;
  void wait() override;
  /// wait(), then rethrow (and forget) the exception of the earliest
  /// submitted action that threw, if any.
  void join();

  /// The lane of an action whose first written buffer is `base`.
  [[nodiscard]] static int lane_of(const void* base);

 private:
  /// "Lane `lane` has run `count` actions."
  struct Dep {
    int lane;
    std::uint64_t count;
  };
  struct Action {
    std::function<void()> fn;
    std::uint64_t seq = 0;  // submission index over all lanes
    std::vector<Dep> deps;  // at most one per other lane
  };
  struct Lane {
    std::unique_ptr<Action[]> ring;  // action k sits in slot k % capacity
    std::uint64_t submitted = 0;     // submitter only
    alignas(64) std::atomic<bool> claimed{false};  // a thread runs it
    alignas(64) std::atomic<std::uint64_t> published{0};
    alignas(64) std::atomic<std::uint64_t> done{0};  // run, in order
  };
  /// The submitter's record of one buffer: its last write, and the last
  /// read of each lane since (each as a lane action count).
  struct Record {
    Dep writer{-1, 0};
    std::vector<Dep> readers;
  };

  void work();
  /// Run the ready actions of some lane; false if none could run.
  bool run_some();
  /// Run `lane`'s next actions while their dependencies are met.
  bool drain(Lane& lane);
  /// True once every use recorded in `rec` has run.
  [[nodiscard]] bool settled(const Record& rec) const;
  /// True when nothing is in flight on any of `buffers` (their records
  /// are dropped).
  bool idle(std::initializer_list<pgas::Access> buffers);
  /// Run an action; a failure is recorded against `seq`.
  void run(const std::function<void()>& fn, std::uint64_t seq);
  /// True when every published action has run.
  [[nodiscard]] bool quiet() const;
  void publish(int lane);
  /// Publish everything, then run ready actions until `until()` holds.
  template <typename Until>
  void help(Until until);
  /// Drop the records of buffers with nothing in flight.
  void sweep();
  void wake_one();

  std::size_t capacity_;
  BeforeAction before_;
  std::array<Lane, kLanes> lanes_;

  // Submitter only.
  std::unordered_map<const void*, Record> records_;
  static constexpr std::size_t kSweepMin = 1024;
  std::size_t sweep_at_ = kSweepMin;  // record count that triggers a sweep
  std::uint64_t next_seq_ = 0;

  // Shared.
  std::mutex error_mutex_;
  std::exception_ptr error_;
  std::uint64_t error_seq_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<int> sleepers_{0};
  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  std::vector<std::thread> threads_;
};

}  // namespace sympack::core::taskrt
