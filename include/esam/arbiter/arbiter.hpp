// The p-port spike arbiter (paper sec. 3.3, Fig. 4).
//
// Holds the pending spike-request vector R of one SRAM array (one bit per
// wordline) and, each clock cycle, grants up to p requests by cascading p
// 1-port fixed-priority encoders: stage k receives the masked vector R' of
// stage k-1 and produces its own one-hot grant, all combinationally within
// the cycle. Granted wordlines fire their RWLs; `R_empty` rises when no
// requests remain, enabling the neurons' threshold comparison.
#pragma once

#include <cstddef>
#include <vector>

#include "esam/arbiter/priority_encoder.hpp"
#include "esam/util/bitvec.hpp"

namespace esam::arbiter {

/// Grants produced in one clock cycle.
struct GrantSet {
  /// Granted wordline indices, in priority order; size <= ports (port k
  /// serves rows[k], the rest are idle).
  std::vector<std::size_t> rows;
  /// True when the request vector is empty *after* these grants.
  bool r_empty_after = false;
};

class MultiPortArbiter {
 public:
  /// `width`: request-vector width (SRAM rows, 128 in the paper).
  /// `ports`: number of decoupled read ports p (1 for the 6T baseline).
  /// Grants do not depend on the encoder topology (flat and tree encoders
  /// grant alike); its timing lives in ArbiterTimingModel.
  MultiPortArbiter(std::size_t width, std::size_t ports);

  [[nodiscard]] std::size_t width() const { return pending_.size(); }
  [[nodiscard]] std::size_t ports() const { return ports_; }

  /// Latches new spike requests (OR-ed into the pending vector).
  void request(const BitVec& spikes);

  /// Pending request count.
  [[nodiscard]] std::size_t pending() const { return pending_.count(); }
  [[nodiscard]] bool r_empty() const { return pending_.none(); }

  /// Executes one arbitration cycle into `out`, reusing its grant-row
  /// storage (the tile step loop keeps one GrantSet per pipeline): grants
  /// up to `ports` pending requests, removes them from the pending vector
  /// and reports R_empty. It grants the lowest-index requests with
  /// word-packed find-first scans -- functionally identical to the
  /// cascaded PriorityEncoder evaluation (each 1-port stage grants the
  /// lowest remaining index), pinned by a differential test against the
  /// structural encoder cascade.
  void arbitrate_into(GrantSet& out);

  void reset();

 private:
  std::size_t ports_;
  BitVec pending_;
};

}  // namespace esam::arbiter
