#include "esam/arbiter/arbiter.hpp"

#include <stdexcept>

namespace esam::arbiter {

MultiPortArbiter::MultiPortArbiter(std::size_t width, std::size_t ports)
    : ports_(ports), pending_(width) {
  if (width == 0) {
    throw std::invalid_argument("MultiPortArbiter: width must be > 0");
  }
  if (ports == 0) {
    throw std::invalid_argument("MultiPortArbiter: ports must be > 0");
  }
}

void MultiPortArbiter::request(const BitVec& spikes) {
  pending_ |= spikes;
}

void MultiPortArbiter::arbitrate_into(GrantSet& out) {
  out.rows.clear();
  // Functional equivalent of cascading p 1-port encoders: every stage
  // grants the lowest remaining index. find_first is a word-packed scan
  // and reset() a single word write, so the cycle does no allocation.
  for (std::size_t port = 0; port < ports_; ++port) {
    const std::size_t idx = pending_.find_first();
    if (idx == pending_.size()) break;
    out.rows.push_back(idx);
    pending_.reset(idx);
  }
  out.r_empty_after = pending_.none();
}

void MultiPortArbiter::reset() {
  pending_.clear();
}

}  // namespace esam::arbiter
