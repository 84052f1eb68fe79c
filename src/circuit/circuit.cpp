#include "circuit/circuit.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "common/error.hpp"

namespace dqcsim {

Circuit::Circuit(int num_qubits, std::string name)
    : num_qubits_(num_qubits), name_(std::move(name)) {
  DQCSIM_EXPECTS(num_qubits >= 0);
}

void Circuit::append(const Gate& g) {
  for (int i = 0; i < g.arity(); ++i) {
    const QubitId q = g.qubits[static_cast<std::size_t>(i)];
    DQCSIM_EXPECTS_MSG(q >= 0 && q < num_qubits_,
                       "gate operand out of register range");
  }
  gates_.push_back(g);
}

std::size_t Circuit::count_1q() const noexcept {
  std::size_t n = 0;
  for (const auto& g : gates_) {
    if (g.arity() == 1 && g.kind != GateKind::Measure) ++n;
  }
  return n;
}

std::size_t Circuit::count_2q() const noexcept {
  std::size_t n = 0;
  for (const auto& g : gates_) {
    if (g.arity() == 2) ++n;
  }
  return n;
}

std::size_t Circuit::count_measure() const noexcept {
  std::size_t n = 0;
  for (const auto& g : gates_) {
    if (g.kind == GateKind::Measure) ++n;
  }
  return n;
}

std::size_t Circuit::unit_depth() const {
  std::vector<std::size_t> level(static_cast<std::size_t>(num_qubits_), 0);
  std::size_t depth = 0;
  for (const auto& g : gates_) {
    std::size_t at = 0;
    for (int i = 0; i < g.arity(); ++i) {
      at = std::max(at, level[static_cast<std::size_t>(
                        g.qubits[static_cast<std::size_t>(i)])]);
    }
    ++at;
    for (int i = 0; i < g.arity(); ++i) {
      level[static_cast<std::size_t>(g.qubits[static_cast<std::size_t>(i)])] =
          at;
    }
    depth = std::max(depth, at);
  }
  return depth;
}

double Circuit::weighted_depth(double (*latency_of)(const Gate&)) const {
  DQCSIM_EXPECTS(latency_of != nullptr);
  std::vector<double> free_at(static_cast<std::size_t>(num_qubits_), 0.0);
  double makespan = 0.0;
  for (const auto& g : gates_) {
    double start = 0.0;
    for (int i = 0; i < g.arity(); ++i) {
      start = std::max(start, free_at[static_cast<std::size_t>(
                                  g.qubits[static_cast<std::size_t>(i)])]);
    }
    const double lat = latency_of(g);
    DQCSIM_EXPECTS_MSG(lat >= 0.0, "gate latency must be nonnegative");
    const double end = start + lat;
    for (int i = 0; i < g.arity(); ++i) {
      free_at[static_cast<std::size_t>(g.qubits[static_cast<std::size_t>(i)])] =
          end;
    }
    makespan = std::max(makespan, end);
  }
  return makespan;
}

void Circuit::extend(const Circuit& other) {
  DQCSIM_EXPECTS_MSG(other.num_qubits_ <= num_qubits_,
                     "extending circuit must not widen the register");
  gates_.insert(gates_.end(), other.gates_.begin(), other.gates_.end());
}

std::string Circuit::to_string() const {
  std::ostringstream os;
  os << "circuit \"" << name_ << "\" (" << num_qubits_ << " qubits, "
     << gates_.size() << " gates)\n";
  for (const auto& g : gates_) os << "  " << g.to_string() << '\n';
  return os.str();
}

std::uint64_t Circuit::fingerprint() const noexcept {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(static_cast<std::uint64_t>(num_qubits_));
  mix(gates_.size());
  for (const Gate& g : gates_) {
    mix(static_cast<std::uint64_t>(g.kind));
    mix((static_cast<std::uint64_t>(static_cast<std::uint32_t>(g.qubits[0]))
         << 32) |
        static_cast<std::uint32_t>(g.qubits[1]));
    std::uint64_t param_bits;
    std::memcpy(&param_bits, &g.param, sizeof param_bits);
    mix(param_bits);
  }
  return h;
}

}  // namespace dqcsim
