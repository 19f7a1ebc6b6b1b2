#pragma once

/// \file factory.hpp
/// The graph factory: every sampled topology behind one registry-
/// selectable axis. A GraphSpec is the parsed, validated form of the
/// shared `--graph=` / `--graph-p=` / `--graph-degree=` /
/// `--graph-blocks=` / `--graph-pin=` / `--graph-pout=` flags;
/// `make_graph(spec, n, rng)` builds the topology as an AnyGraph
/// variant. The families build and enumerate rows; protocols sample
/// through the one CsrTopology view make_csr_view (graph/csr.hpp)
/// builds over any of them, so each protocol is instantiated once and
/// the tick path keeps zero virtual dispatch.
///
/// Validation policy (matching Args' numeric validation): unknown
/// `--graph=` names and out-of-range parameters throw ContractViolation
/// messages that name the flag, never silently fall back.

#include <cstdint>
#include <string>
#include <variant>

#include "graph/complete.hpp"
#include "graph/erdos_renyi.hpp"
#include "graph/graph.hpp"
#include "graph/random_regular.hpp"
#include "graph/ring.hpp"
#include "graph/sbm.hpp"
#include "graph/torus.hpp"
#include "rng/xoshiro256.hpp"

namespace plurality {

/// The registered topology families, as selected by `--graph=`.
enum class GraphKind : std::uint8_t {
  kComplete,       ///< K_n, the paper's topology
  kRing,           ///< cycle C_n (extreme low expansion)
  kTorus,          ///< 2D torus on floor(sqrt n)^2 nodes
  kErdosRenyi,     ///< G(n, p) (sparse expander above ln n / n)
  kRandomRegular,  ///< random d-regular (configuration model)
  kSbm,            ///< stochastic block model (community structure)
};

inline const char* graph_kind_name(GraphKind kind) noexcept {
  switch (kind) {
    case GraphKind::kComplete: return "complete";
    case GraphKind::kRing: return "ring";
    case GraphKind::kTorus: return "torus";
    case GraphKind::kErdosRenyi: return "er";
    case GraphKind::kRandomRegular: return "regular";
    case GraphKind::kSbm: return "sbm";
  }
  return "unknown";
}

/// Parses a `--graph=` value; throws ContractViolation (naming the
/// offending text) on anything unrecognized.
GraphKind parse_graph_kind(const std::string& name);

/// The resolved `--graph*` flag family: which topology to build and the
/// per-family parameters. A value type so it can be validated once on
/// the main thread and then used to build graphs anywhere (including
/// worker lambdas, where a throw would terminate instead of reporting).
struct GraphSpec {
  GraphKind kind = GraphKind::kComplete;
  double er_p = 0.0;          ///< --graph-p; 0 = auto 3 ln(n) / n
  std::uint32_t degree = 8;   ///< --graph-degree (random regular)
  std::uint32_t blocks = 4;   ///< --graph-blocks (sbm)
  double p_in = 0.3;          ///< --graph-pin (sbm within-block rate)
  double p_out = 0.01;        ///< --graph-pout (sbm cross-block rate)

  /// Range checks with messages naming the flag; throws
  /// ContractViolation. n-dependent feasibility (e.g. degree < n,
  /// handshake parity) is checked by make_graph, which knows n.
  void validate() const;

  /// Human-readable label for tables: "complete", "er(p=3lnN/n)",
  /// "sbm(b=4,pin=0.3,pout=0.01)", ...
  std::string label() const;
};

/// Every topology the factory can build. Placement and make_csr_view
/// visit it off the hot path; protocols run over the CSR view.
using AnyGraph = std::variant<CompleteGraph, RingGraph, TorusGraph,
                              ErdosRenyiGraph, RandomRegularGraph,
                              StochasticBlockModelGraph>;

/// Builds the topology selected by `spec` on (about) n nodes; the torus
/// rounds n down to floor(sqrt n)^2, everything else uses n exactly —
/// read the node count back via num_nodes(). Random families draw their
/// edges from `rng`. Infeasible (spec, n) combinations throw
/// ContractViolation naming the offending flag — including in-range
/// rates that happen to leave a node isolated (protocols sample a
/// neighbor of every node, so such a build could only crash later).
AnyGraph make_graph(const GraphSpec& spec, std::uint64_t n, Xoshiro256& rng);

/// The realized node count of any factory-built topology.
std::uint64_t num_nodes(const AnyGraph& graph);

}  // namespace plurality
