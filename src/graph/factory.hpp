#pragma once

/// \file factory.hpp
/// The graph factory: every sampled topology behind one registry-
/// selectable axis. A GraphSpec is the parsed, validated form of the
/// shared `--graph=` / `--graph-p=` / `--graph-degree=` /
/// `--graph-blocks=` / `--graph-pin=` / `--graph-pout=` flags;
/// `make_graph(spec, n, rng)` builds the topology as an AnyGraph: the
/// closed-form CompleteGraph, or the CsrTopology rows a family builder
/// (graph/builders.hpp) wrote. Protocols and placements both read the
/// one view make_csr_view takes of either, so each protocol is
/// instantiated once and the tick path keeps zero virtual dispatch.
///
/// Validation policy (matching Args' numeric validation): unknown
/// `--graph=` names and out-of-range parameters throw ContractViolation
/// messages that name the flag, never silently fall back.

#include <cstddef>
#include <cstdint>
#include <string>
#include <variant>

#include "graph/complete.hpp"
#include "graph/csr.hpp"
#include "graph/graph.hpp"
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

/// Every topology the factory can build: the clique in closed form, or
/// the rows (and the SBM's partition) of any other family.
using AnyGraph = std::variant<CompleteGraph, CsrTopology>;

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

/// The view protocols sample and placements enumerate, in O(1): the
/// implicit clique, or a borrow of the held rows and partition (the
/// AnyGraph must outlive the view, hence no temporaries).
CsrTopology make_csr_view(const AnyGraph& graph);
CsrTopology make_csr_view(AnyGraph&& graph) = delete;

/// The bytes of topology structure a factory-built graph holds: 0 for
/// the implicit complete graph, CSR offsets + edges otherwise (see
/// CsrTopology::storage_bytes).
std::size_t graph_storage_bytes(const AnyGraph& graph);

}  // namespace plurality
