#include "graph/factory.hpp"

#include <cmath>

#include "graph/builders.hpp"
#include "support/assert.hpp"

namespace plurality {

namespace {

[[noreturn]] void bad_flag(const std::string& flag, const std::string& value,
                           const char* expected) {
  throw ContractViolation(flag + " expects " + expected + ", got '" + value +
                          "'");
}

/// Nodes with an empty row.
std::uint64_t count_isolated(const CsrTopology& rows) {
  std::uint64_t isolated = 0;
  for (NodeId u = 0; u < rows.num_nodes(); ++u) {
    if (rows.degree(u) == 0) ++isolated;
  }
  return isolated;
}

std::string trimmed(double value) {
  std::string s = std::to_string(value);
  while (s.size() > 1 && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s;
}

}  // namespace

GraphKind parse_graph_kind(const std::string& name) {
  if (name == "complete") return GraphKind::kComplete;
  if (name == "ring") return GraphKind::kRing;
  if (name == "torus") return GraphKind::kTorus;
  if (name == "er") return GraphKind::kErdosRenyi;
  if (name == "regular") return GraphKind::kRandomRegular;
  if (name == "sbm") return GraphKind::kSbm;
  throw ContractViolation(
      "--graph=" + name +
      " is not one of complete|ring|torus|er|regular|sbm");
}

void GraphSpec::validate() const {
  if (!(er_p >= 0.0 && er_p <= 1.0)) {
    bad_flag("--graph-p", trimmed(er_p),
             "a probability in [0, 1] (0 = auto 3 ln n / n)");
  }
  if (degree < 1) {
    bad_flag("--graph-degree", std::to_string(degree), "an integer >= 1");
  }
  if (blocks < 1) {
    bad_flag("--graph-blocks", std::to_string(blocks), "an integer >= 1");
  }
  if (!(p_in > 0.0 && p_in <= 1.0)) {
    bad_flag("--graph-pin", trimmed(p_in), "a probability in (0, 1]");
  }
  if (!(p_out >= 0.0 && p_out <= 1.0)) {
    bad_flag("--graph-pout", trimmed(p_out), "a probability in [0, 1]");
  }
}

std::string GraphSpec::label() const {
  switch (kind) {
    case GraphKind::kComplete: return "complete";
    case GraphKind::kRing: return "ring";
    case GraphKind::kTorus: return "torus";
    case GraphKind::kErdosRenyi:
      return er_p > 0.0 ? "er(p=" + trimmed(er_p) + ")" : "er(p=3lnN/n)";
    case GraphKind::kRandomRegular:
      return "regular(d=" + std::to_string(degree) + ")";
    case GraphKind::kSbm:
      return "sbm(b=" + std::to_string(blocks) + ",pin=" + trimmed(p_in) +
             ",pout=" + trimmed(p_out) + ")";
  }
  return "unknown";
}

AnyGraph make_graph(const GraphSpec& spec, std::uint64_t n, Xoshiro256& rng) {
  spec.validate();
  switch (spec.kind) {
    case GraphKind::kComplete:
      return CompleteGraph(n);
    case GraphKind::kRing:
      return build_ring(n);
    case GraphKind::kTorus: {
      const auto side = static_cast<std::uint32_t>(
          std::sqrt(static_cast<double>(n)));
      if (side < 3) {
        bad_flag("--graph", "torus",
                 "n >= 9 (the torus needs a side of at least 3)");
      }
      return build_torus(side, side);
    }
    case GraphKind::kErdosRenyi: {
      const double p =
          spec.er_p > 0.0
              ? spec.er_p
              : 3.0 * std::log(static_cast<double>(n)) /
                    static_cast<double>(n);
      CsrTopology g = build_erdos_renyi(n, p, rng);
      // Protocols sample a neighbor of *every* node; an isolated node
      // would trip an opaque assert deep inside a worker repetition,
      // so reject the build here with the flag named instead.
      if (const std::uint64_t isolated = count_isolated(g); isolated > 0) {
        throw ContractViolation(
            "--graph-p=" + trimmed(p) + " left " +
            std::to_string(isolated) + " of " + std::to_string(n) +
            " nodes isolated; protocols sample a neighbor of every node "
            "— use p >= ~3 ln n / n (the --graph-p=0 auto default)");
      }
      return g;
    }
    case GraphKind::kRandomRegular: {
      if (spec.degree >= n) {
        bad_flag("--graph-degree", std::to_string(spec.degree),
                 "a degree below n");
      }
      if ((n * spec.degree) % 2 != 0) {
        bad_flag("--graph-degree", std::to_string(spec.degree),
                 "n * degree to be even (handshake parity)");
      }
      return build_random_regular(n, spec.degree, rng);
    }
    case GraphKind::kSbm: {
      if (spec.blocks > n) {
        bad_flag("--graph-blocks", std::to_string(spec.blocks),
                 "at most n blocks");
      }
      CsrTopology g =
          build_sbm(n, spec.blocks, spec.p_in, spec.p_out, rng);
      // Same policy as Erdős–Rényi: isolated nodes must fail loudly at
      // build time, naming the rates that caused them.
      if (const std::uint64_t isolated = count_isolated(g); isolated > 0) {
        throw ContractViolation(
            "--graph-pin=" + trimmed(spec.p_in) + " with --graph-pout=" +
            trimmed(spec.p_out) + " left " + std::to_string(isolated) +
            " of " + std::to_string(n) +
            " nodes isolated; protocols sample a neighbor of every node "
            "— raise the rates or lower --graph-blocks");
      }
      return g;
    }
  }
  throw ContractViolation("unreachable graph kind");
}

std::uint64_t num_nodes(const AnyGraph& graph) {
  return std::visit([](const auto& g) { return g.num_nodes(); }, graph);
}

CsrTopology make_csr_view(const AnyGraph& graph) {
  if (const auto* clique = std::get_if<CompleteGraph>(&graph)) {
    return CsrTopology::implicit_complete(clique->num_nodes());
  }
  return std::get<CsrTopology>(graph).borrow();
}

std::size_t graph_storage_bytes(const AnyGraph& graph) {
  const auto* rows = std::get_if<CsrTopology>(&graph);
  return rows != nullptr ? rows->storage_bytes() : 0;
}

}  // namespace plurality
