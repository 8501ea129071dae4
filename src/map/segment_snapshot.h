// Per-node nearest-segment snapshot: one SegmentIndex query per position
// change instead of one per packet.
//
// The route-geometry protocols resolve node positions to road segments
// constantly — corridor admission, corridor-cache refresh, grid-cell
// residency — but a node's position only changes on mobility ticks, so
// within a tick every query for the same node returns the same segment. The
// snapshot caches (position, segment) per node id and serves repeat queries
// by bit-equality of the position: the caller passes the node's CURRENT
// position (the tick-aligned value the Network position cache holds), and a
// cached entry whose stored position is bit-equal answers without touching
// the index. Because SegmentIndex::nearest_segment is a pure function of the
// position bits, a hit is bit-identical to a fresh query by construction —
// this cache can never move a digest. (±0.0 compare equal but also map to
// the same segment, so the == comparison is safe.)
//
// A `Prover` hook lets graph mobility skip even the first query per tick:
// GraphMobility::reported_segment knows which segment it is driving a
// vehicle along and returns it when that knowledge is unambiguous (interior
// of a segment no other segment overlaps), or -1 otherwise. The contract is
// the same as everywhere else in the repo: a non-negative prover answer MUST
// equal nearest_segment(pos).
//
// Ownership: one per event loop (the sim::World's, shared with the serial
// stack, or a shard stack's own), so one thread uses it, shared across that
// loop's protocol instances via ProtocolContext. Do NOT feed it
// extrapolated positions (e.g. HelloNeighbor::predicted_pos between ticks):
// those are not "the node's current position" and would poison the entry —
// callers with extrapolated geometry keep querying the index directly.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/vec2.h"
#include "map/segment_index.h"

namespace vanet::map {

class SegmentSnapshot {
 public:
  /// Answers "which segment is node `id` on, given it is at `pos`?" without
  /// consulting the index: return the segment id when provably known, -1 to
  /// decline. Non-negative answers MUST equal index.nearest_segment(pos).
  using Prover = std::function<int(std::uint32_t id, core::Vec2 pos)>;

  struct Stats {
    std::uint64_t queries = 0;        ///< total segment_of() calls
    std::uint64_t hits = 0;           ///< served from the per-node entry
    std::uint64_t proven = 0;         ///< misses answered by the prover
    std::uint64_t index_queries = 0;  ///< misses that hit the SegmentIndex
  };

  /// `index` must outlive the snapshot.
  explicit SegmentSnapshot(const SegmentIndex& index) : index_{index} {}

  /// Install the mobility-side prover (optional; see class comment).
  void set_prover(Prover prover) { prover_ = std::move(prover); }

  /// Nearest segment to `pos`, which must be node `id`'s current
  /// (tick-aligned) position. Bit-identical to
  /// index().nearest_segment(pos), served from cache when `id` has not
  /// moved since the last call.
  int segment_of(std::uint32_t id, core::Vec2 pos);

  const SegmentIndex& index() const { return index_; }
  const Stats& stats() const { return stats_; }

 private:
  struct Entry {
    core::Vec2 pos;
    int seg = -1;
  };

  const SegmentIndex& index_;
  Prover prover_;
  std::vector<Entry> entries_;  ///< indexed by node id, grown on demand
  Stats stats_;
};

}  // namespace vanet::map
