#include "core/taskrt/executor.hpp"

#include <algorithm>
#include <utility>


namespace sympack::core::taskrt {

namespace {

// Scans an idle worker makes (a few tens of microseconds) before it
// sleeps.
constexpr int kSpins = 2000;

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

}  // namespace

Executor::Executor(int workers, std::size_t capacity, BeforeAction before)
    : capacity_(std::max<std::size_t>(capacity, 1)),
      before_(std::move(before)) {
  if (workers <= 0) return;
  for (Lane& lane : lanes_) lane.ring = std::make_unique<Action[]>(capacity_);
  records_.reserve(kSweepMin);
  threads_.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) threads_.emplace_back([this] { work(); });
}

Executor::~Executor() {
  wait();
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    stop_.store(true);
  }
  sleep_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

int Executor::default_workers(bool threaded) {
  if (threaded) return 0;
  const auto hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, hw - 1);
}

int Executor::lane_of(const void* base) {
  // Fibonacci hashing of the address; the top bits pick the lane.
  const auto bits = static_cast<std::uint64_t>(
      reinterpret_cast<std::uintptr_t>(base) >> 4);
  return static_cast<int>((bits * 0x9e3779b97f4a7c15ull) >> 58);
}

void Executor::submit(std::function<void()> action,
                      std::initializer_list<pgas::Access> buffers,
                      std::size_t work) {
  if (threads_.empty()) {
    action();
    return;
  }
  if (work < kInlineWork && idle(buffers)) {
    run(action, next_seq_++);
    return;
  }
  const void* key = nullptr;
  for (const pgas::Access& a : buffers) {
    if (a.base != nullptr && (key == nullptr || a.write)) {
      key = a.base;
      if (a.write) break;
    }
  }
  const int me = lane_of(key);
  Lane& lane = lanes_[static_cast<std::size_t>(me)];
  if (lane.submitted - lane.done.load(std::memory_order_acquire) >=
      capacity_) {
    help([&] {
      return lane.submitted - lane.done.load(std::memory_order_acquire) <
             capacity_;
    });
  }
  const std::uint64_t count = lane.submitted + 1;
  // The ring slot's last action has run (the room check): reuse it, which
  // destroys its closure here.
  Action& act = lane.ring[lane.submitted % capacity_];
  act.fn = std::move(action);
  act.seq = next_seq_++;
  act.deps.clear();
  const auto need = [&](Dep d) {
    if (d.lane < 0 || d.lane == me) return;
    for (Dep& x : act.deps) {
      if (x.lane == d.lane) {
        x.count = std::max(x.count, d.count);
        return;
      }
    }
    act.deps.push_back(d);
  };
  for (const pgas::Access& a : buffers) {
    if (a.base == nullptr) continue;
    const auto it = records_.try_emplace(a.base).first;
    Record& rec = it->second;
    need(rec.writer);
    if (!a.write) {
      const auto r = std::find_if(rec.readers.begin(), rec.readers.end(),
                                  [me](const Dep& d) { return d.lane == me; });
      if (r == rec.readers.end()) {
        rec.readers.push_back({me, count});
      } else {
        r->count = count;
      }
      continue;
    }
    for (const Dep& d : rec.readers) need(d);
    rec.writer = {me, count};
    rec.readers.clear();
  }
  lane.submitted = count;
  // What this action waits for must be where a worker can run it.
  for (const Dep& d : act.deps) {
    if (lanes_[static_cast<std::size_t>(d.lane)].published.load(
            std::memory_order_relaxed) < d.count) {
      publish(d.lane);
    }
  }
  if (count - lane.published.load(std::memory_order_relaxed) >= kBatch) {
    publish(me);
  }
  if (records_.size() >= sweep_at_) sweep();
}

void Executor::wait() {
  if (threads_.empty()) return;
  help([this] { return quiet(); });
  records_.clear();
}

void Executor::join() {
  wait();
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(error_mutex_);
    error = std::exchange(error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

template <typename Until>
void Executor::help(Until until) {
  for (int l = 0; l < kLanes; ++l) publish(l);
  while (!until()) {
    if (!run_some()) cpu_relax();
  }
}

void Executor::publish(int l) {
  Lane& lane = lanes_[static_cast<std::size_t>(l)];
  if (lane.published.load(std::memory_order_relaxed) == lane.submitted) {
    return;
  }
  lane.published.store(lane.submitted);
  if (sleepers_.load() > 0) wake_one();
}

void Executor::work() {
  int idle = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    if (run_some()) {
      idle = 0;
    } else if (++idle < kSpins) {
      cpu_relax();
    } else {
      // Sleep while every published action has run. The sleeper count
      // and the published counts are sequentially consistent, so either
      // this check sees a new action or its publisher sees the sleeper
      // and wakes it under the mutex.
      idle = 0;
      std::unique_lock<std::mutex> lock(sleep_mutex_);
      sleepers_.fetch_add(1);
      if (quiet() && !stop_.load()) sleep_cv_.wait(lock);
      sleepers_.fetch_sub(1);
    }
  }
}

bool Executor::run_some() {
  thread_local int start = 0;
  for (int k = 0; k < kLanes; ++k) {
    const int l = (start + k) % kLanes;
    Lane& lane = lanes_[static_cast<std::size_t>(l)];
    if (lane.published.load() == lane.done.load(std::memory_order_acquire)) {
      continue;
    }
    if (lane.claimed.load(std::memory_order_relaxed) ||
        lane.claimed.exchange(true, std::memory_order_acquire)) {
      continue;
    }
    const bool ran = drain(lane);
    lane.claimed.store(false, std::memory_order_release);
    if (ran) {
      start = (l + 1) % kLanes;
      return true;
    }
  }
  return false;
}

bool Executor::drain(Lane& lane) {
  bool ran = false;
  std::uint64_t k = lane.done.load(std::memory_order_relaxed);
  for (;;) {
    if (k == lane.published.load()) return ran;
    Action& act = lane.ring[k % capacity_];
    for (const Dep& d : act.deps) {
      if (lanes_[static_cast<std::size_t>(d.lane)].done.load(
              std::memory_order_acquire) < d.count) {
        return ran;
      }
    }
    run(act.fn, act.seq);
    lane.done.store(++k, std::memory_order_release);
    ran = true;
  }
}

bool Executor::idle(std::initializer_list<pgas::Access> buffers) {
  for (const pgas::Access& a : buffers) {
    const auto it = records_.find(a.base);
    if (it == records_.end()) continue;
    if (!settled(it->second)) return false;
    records_.erase(it);
  }
  return true;
}

void Executor::run(const std::function<void()>& fn, std::uint64_t seq) {
  try {
    if (before_) before_(seq);
    fn();
  } catch (...) {
    std::lock_guard<std::mutex> lock(error_mutex_);
    if (!error_ || seq < error_seq_) {
      error_ = std::current_exception();
      error_seq_ = seq;
    }
  }
}

bool Executor::settled(const Record& rec) const {
  const auto ran = [this](const Dep& d) {
    return d.lane < 0 || lanes_[static_cast<std::size_t>(d.lane)].done.load(
                             std::memory_order_acquire) >= d.count;
  };
  return ran(rec.writer) && std::all_of(rec.readers.begin(),
                                        rec.readers.end(), ran);
}

bool Executor::quiet() const {
  return std::all_of(lanes_.begin(), lanes_.end(), [](const Lane& lane) {
    return lane.published.load() == lane.done.load();
  });
}

void Executor::sweep() {
  std::erase_if(records_,
                [this](const auto& entry) { return settled(entry.second); });
  sweep_at_ = std::max(2 * records_.size(), kSweepMin);
}

void Executor::wake_one() {
  std::lock_guard<std::mutex> lock(sleep_mutex_);
  sleep_cv_.notify_one();
}

}  // namespace sympack::core::taskrt
