#include "symbolic/view.hpp"

#include <atomic>
#include <bit>
#include <cstddef>

#include "pgas/machine_model.hpp"
#include "pgas/runtime.hpp"

namespace sympack::symbolic {

namespace {

/// Metadata bytes a rank retains for one resident panel: the supernode
/// record, its below-row and block arrays, and the per-panel task-graph
/// tables (update counts + recipient/consumer lists).
std::uint64_t panel_meta_bytes(const Symbolic& sym, const TaskGraph& tg,
                               idx_t k) {
  const Supernode& sn = sym.snode(k);
  std::uint64_t bytes = sizeof(Supernode);
  bytes += sn.below.size() * sizeof(idx_t);
  bytes += sn.blocks.size() * sizeof(Block);
  bytes += tg.panel_table_bytes(k);
  return bytes;
}

/// Assembly-tree parent of supernode k (-1 at a root): the supernode
/// holding the first row below the panel.
idx_t parent_snode(const Symbolic& sym, idx_t k) {
  const Supernode& sn = sym.snode(k);
  if (sn.below.empty()) return -1;
  return sym.snode_of(sn.below.front());
}

std::uint64_t rank_bit(int rank) { return std::uint64_t{1} << (rank % 64); }

}  // namespace

SymbolicView::SymbolicView(const TaskGraph& tg, double build_wall_s)
    : pulls_{0}, build_s_{build_wall_s} {
  // Full global footprint, present on every rank: all panel metadata
  // plus the O(n) column->supernode directory.
  const Symbolic& sym = tg.symbolic();
  std::uint64_t bytes = static_cast<std::uint64_t>(sym.n()) * sizeof(idx_t);
  for (idx_t k = 0; k < sym.num_snodes(); ++k) {
    bytes += panel_meta_bytes(sym, tg, k);
  }
  resident_bytes_ = {bytes};
}

SymbolicView::SymbolicView(const TaskGraph& tg,
                           const pgas::MachineModel& model, int nranks,
                           const AnalyzeStats& stats)
    : model_(&model), words_((static_cast<std::size_t>(nranks) + 63) / 64) {
  const Symbolic& sym = tg.symbolic();
  const idx_t ns = sym.num_snodes();
  const auto nr = static_cast<std::size_t>(nranks);
  bits_.assign(static_cast<std::size_t>(ns) * words_, 0);
  panel_bytes_.resize(static_cast<std::size_t>(ns));
  // Every rank keeps a fixed directory: the first/last column of every
  // supernode, so snode_of resolves by binary search without the O(n)
  // map.
  resident_bytes_.assign(nr, static_cast<std::uint64_t>(ns) * 2 *
                                 sizeof(idx_t));
  pulls_.assign(nr, 0);

  const auto row = [this](idx_t k) {
    return bits_.data() + static_cast<std::size_t>(k) * words_;
  };
  const auto keep = [&row](idx_t k, int r) {
    row(k)[r / 64] |= rank_bit(r);
  };

  // One ascending pass. Every rule that marks panel k fires at or before
  // k's own iteration: rule 3 and the closure only mark later panels
  // (block targets and parents have larger ids). So once k's own rules
  // have run, its set is final: charge its bytes to every rank in it and
  // OR it into its parent, which makes each set closed under ancestors.
  for (idx_t k = 0; k < ns; ++k) {
    const Supernode& sn = sym.snode(k);
    const idx_t nslots = 1 + static_cast<idx_t>(sn.blocks.size());
    for (BlockSlot slot = 0; slot < nslots; ++slot) {
      const int owner = tg.owner(k, slot);
      keep(k, owner);                                    // rule 1
      for (int c : tg.consumers(k, slot)) keep(k, c);    // rule 2
      if (slot > 0) {
        const idx_t t = sn.blocks[slot - 1].target;
        keep(t, owner);                                  // rule 3
        keep(k, tg.owner(t, 0));                         // rule 4
      }
    }
    const std::uint64_t bytes = panel_meta_bytes(sym, tg, k);
    panel_bytes_[static_cast<std::size_t>(k)] = bytes;
    const std::uint64_t* set = row(k);
    for (std::size_t w = 0; w < words_; ++w) {
      for (std::uint64_t m = set[w]; m != 0; m &= m - 1) {
        resident_bytes_[w * 64 + std::countr_zero(m)] += bytes;
      }
    }
    const idx_t p = parent_snode(sym, k);
    if (p < 0) continue;
    std::uint64_t* parent = row(p);
    for (std::size_t w = 0; w < words_; ++w) parent[w] |= set[w];
  }

  // Per-rank symbolic-phase time: proportional share of the measured
  // row-structure wall time plus the RPC cost of the child below-list
  // exchanges this rank received (AnalyzeStats's slice attribution).
  build_s_.assign(nr, 0.0);
  const std::uint64_t total_work = stats.total_work();
  for (std::size_t r = 0; r < nr; ++r) {
    double t = 0.0;
    if (total_work > 0 && r < stats.rank_work.size()) {
      t = stats.wall_s * static_cast<double>(stats.rank_work[r]) /
          static_cast<double>(total_work);
    } else {
      t = stats.wall_s / static_cast<double>(nranks);
    }
    if (r < stats.rank_exchange_msgs.size()) {
      t += static_cast<double>(stats.rank_exchange_msgs[r]) *
           model.rpc_overhead_s;
      t += static_cast<double>(stats.rank_exchange_bytes[r]) /
           model.rpc_byte_Bps;
    }
    build_s_[r] = t;
  }
}

void SymbolicView::touch(pgas::Rank& rank, idx_t k) const {
  if (!sharded()) return;
  const int r = rank.id();
  std::atomic_ref<std::uint64_t> word(
      bits_[static_cast<std::size_t>(k) * words_ + r / 64]);
  const std::uint64_t bit = rank_bit(r);
  if ((word.load() & bit) != 0) return;
  // Remote metadata pull: one RPC round trip to the panel's home rank,
  // then cache. Deliberately kept out of the wire-protocol counters
  // (rpcs_sent/gets/bytes_from_host) so sharding never perturbs the
  // golden CommStats block — the symbolic_* family owns this traffic.
  const std::uint64_t bytes = panel_bytes_[static_cast<std::size_t>(k)];
  rank.advance(model_->rpc_time(static_cast<std::size_t>(bytes)));
  ++rank.stats().symbolic_pull_rpcs;
  rank.stats().symbolic_bytes += bytes;
  word.fetch_or(bit);
  resident_bytes_[static_cast<std::size_t>(r)] += bytes;
  ++pulls_[static_cast<std::size_t>(r)];
}

bool SymbolicView::resident(int rank, idx_t k) const {
  if (!sharded()) return true;
  const std::atomic_ref<std::uint64_t> word(
      bits_[static_cast<std::size_t>(k) * words_ + rank / 64]);
  return (word.load() & rank_bit(rank)) != 0;
}

std::uint64_t SymbolicView::resident_bytes(int rank) const {
  return resident_bytes_[sharded() ? static_cast<std::size_t>(rank) : 0];
}

std::uint64_t SymbolicView::pull_rpcs(int rank) const {
  return pulls_[sharded() ? static_cast<std::size_t>(rank) : 0];
}

double SymbolicView::build_seconds(int rank) const {
  return build_s_[sharded() ? static_cast<std::size_t>(rank) : 0];
}

}  // namespace sympack::symbolic
