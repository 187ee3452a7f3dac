#include "symbolic/taskgraph.hpp"

#include <algorithm>
#include <stdexcept>

namespace sympack::symbolic {

TaskGraph::TaskGraph(const Symbolic& sym, std::shared_ptr<const Mapping> map,
                     Variant variant)
    : sym_(&sym), map_(std::move(map)), variant_(variant) {
  const Mapping& m = *map_;
  const idx_t ns = sym.num_snodes();
  ucount_.resize(ns);
  for (idx_t k = 0; k < ns; ++k) {
    ucount_[k].assign(1 + sym.snode(k).blocks.size(), 0);
  }
  owned_f_.assign(m.nranks(), 0);
  owned_u_.assign(m.nranks(), 0);
  // Fan-in: the ranks already counted as sending each block an aggregate.
  std::vector<std::vector<std::vector<int>>> senders;
  if (variant_ == Variant::kFanIn) {
    senders.resize(ns);
    for (idx_t k = 0; k < ns; ++k) senders[k].resize(ucount_[k].size());
  }

  for (idx_t j = 0; j < ns; ++j) {
    const auto& sn = sym.snode(j);
    // Factor tasks of panel j.
    ++owned_f_[m(j, j)];
    for (const auto& blk : sn.blocks) ++owned_f_[m(blk.target, j)];
    total_f_ += 1 + static_cast<idx_t>(sn.blocks.size());

    // Update tasks: every ordered pair (ti <= si) of panel-j blocks.
    const idx_t nb = static_cast<idx_t>(sn.blocks.size());
    for (idx_t ti = 0; ti < nb; ++ti) {
      const idx_t t = sn.blocks[ti].target;
      for (idx_t si = ti; si < nb; ++si) {
        const idx_t s = sn.blocks[si].target;
        BlockSlot slot;
        if (s == t) {
          slot = 0;  // diagonal block of supernode t
        } else {
          const idx_t bi = sym.find_block(t, s);
          if (bi < 0) {
            throw std::runtime_error(
                "TaskGraph: containment violation (missing target block)");
          }
          slot = bi + 1;
        }
        const int r = update_rank(s, j, t);
        ++owned_u_[r];
        ++total_u_;
        if (variant_ == Variant::kFanOut) {
          ++ucount_[t][slot];
          continue;
        }
        std::vector<int>& seen = senders[t][slot];
        if (std::find(seen.begin(), seen.end(), r) == seen.end()) {
          seen.push_back(r);
          ++ucount_[t][slot];
        }
      }
    }
  }

  build_consumer_tables();
}

TaskGraph::TaskGraph(const Symbolic& sym, const Mapping& map, Variant variant)
    : TaskGraph(sym, std::make_shared<const Mapping>(map), variant) {}

int TaskGraph::owner(idx_t k, BlockSlot slot) const {
  const Mapping& m = *map_;
  if (slot == 0) return m(k, k);
  return m(sym_->snode(k).blocks[slot - 1].target, k);
}

void TaskGraph::build_consumer_tables() {
  const Mapping& m = *map_;
  const idx_t ns = sym_->num_snodes();
  consumers_.resize(ns);
  recipients_.resize(ns);
  for (idx_t k = 0; k < ns; ++k) {
    const auto& sn = sym_->snode(k);
    const idx_t nslots = 1 + static_cast<idx_t>(sn.blocks.size());
    consumers_[k].resize(nslots);
    recipients_[k].resize(nslots);
    for (BlockSlot slot = 0; slot < nslots; ++slot) {
      std::vector<int>& out = consumers_[k][slot];
      if (slot == 0) {
        // The diagonal factor L_{k,k} is consumed by every F task of
        // panel k.
        for (const auto& blk : sn.blocks) out.push_back(m(blk.target, k));
      } else {
        const idx_t bi = slot - 1;
        const idx_t s = sn.blocks[bi].target;
        // As the source operand of U_{s,k,t} for every t <= s in the
        // panel.
        for (idx_t ti = 0; ti <= bi; ++ti) {
          out.push_back(update_rank(s, k, sn.blocks[ti].target));
        }
        // As the pivot operand of U_{s',k,s} for every s' >= s in the
        // panel.
        for (idx_t si = bi; si < static_cast<idx_t>(sn.blocks.size()); ++si) {
          out.push_back(update_rank(sn.blocks[si].target, k, s));
        }
      }
      std::sort(out.begin(), out.end());
      out.erase(std::unique(out.begin(), out.end()), out.end());

      std::vector<int>& rec = recipients_[k][slot];
      rec = out;
      const int self = owner(k, slot);
      rec.erase(std::remove(rec.begin(), rec.end(), self), rec.end());
    }
  }
}

std::size_t TaskGraph::panel_table_bytes(idx_t k) const {
  std::size_t bytes = ucount_[k].size() * sizeof(idx_t);
  for (const auto& list : consumers_[k]) bytes += list.size() * sizeof(int);
  for (const auto& list : recipients_[k]) bytes += list.size() * sizeof(int);
  return bytes;
}

}  // namespace sympack::symbolic
