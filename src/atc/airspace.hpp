// Synthetic European airspace geometry — the substitute for the paper's
// proprietary ENAC sector data.
//
// Sector centres are sampled (best-candidate blue-noise) from a union of
// country boxes approximating the paper's "country core area" (Germany,
// France, UK, Switzerland, Benelux, Austria, Spain, Denmark, Luxembourg,
// Italy), in two vertical layers (lower/upper airspace). Adjacency is a
// mutual k-nearest-neighbour graph per layer plus vertical edges between
// stacked sectors — the structure real sector graphs have: planar-ish
// layers, mean degree ≈ 8, spatial locality.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace ffp {

struct Sector {
  double x = 0.0;  ///< lon-like coordinate (degrees-ish)
  double y = 0.0;  ///< lat-like coordinate
  int layer = 0;   ///< 0 = lower airspace, 1 = upper
  int country = 0; ///< index into core_area_countries()
};

struct CountryBox {
  const char* name;
  double x0, y0, x1, y1;
  double traffic_weight;  ///< relative share of European traffic
};

/// The 11-country core area of Bichot & Alliot (2005), as coarse boxes.
std::span<const CountryBox> core_area_countries();

struct AirspaceOptions {
  int n_sectors = 762;
  double lower_fraction = 0.55;  ///< share of sectors in the lower layer
  int neighbors_per_sector = 5;  ///< k for the mutual-kNN adjacency
  std::uint64_t seed = 2006;
};

struct Airspace {
  std::vector<Sector> sectors;
  /// Geometric adjacency (weights = 1; flows.hpp turns them into traffic).
  std::vector<WeightedEdge> adjacency;
};

Airspace make_airspace(const AirspaceOptions& options);

/// Euclidean distance between two sectors (vertical hops count a little).
double sector_distance(const Sector& a, const Sector& b);

}  // namespace ffp
