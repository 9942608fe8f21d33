// Graph and partition file I/O.
//
// Supported formats:
//  - Chaco / METIS graph format (they share the same layout): a header line
//    "n m [fmt]" followed by one line per vertex listing its neighbors
//    (1-indexed), optionally interleaved with vertex/edge weights depending
//    on fmt (0, 1, 10, 11, 100, 110, 111 — leading digit enables vertex
//    sizes, which we accept and ignore). '%' or '#' start comment lines.
//    This is the format of the Walshaw benchmark archive.
//  - Partition files: one part id per line, as written by Chaco/METIS.
//  - Durable partition records: `<name> <value>` header lines, then a
//    partition file body (see encode_partition_record below).
//
// All readers throw ffp::Error with a line number on malformed input —
// they are hardened for UNTRUSTED files (the ffp_serve daemon parses
// whatever a client names): header counts are range-checked before any
// allocation, weights must be finite and positive where required,
// duplicate neighbor entries and self loops are rejected with the
// offending vertex named, and `IoLimits` lets a service cap instance size
// so a hostile header cannot trigger a giant allocation.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace ffp {

/// Ceilings enforced while parsing, BEFORE anything is allocated to the
/// declared size. Defaults accept anything the in-memory Graph can hold;
/// services parsing untrusted input pass tighter caps.
struct IoLimits {
  std::int64_t max_vertices = 0;  ///< 0 → VertexId range
  std::int64_t max_edges = 0;     ///< 0 → unlimited
  /// The effective caps with the 0-defaults resolved — the one place the
  /// "0 means VertexId-range / unlimited" rule lives (file readers and the
  /// service protocol's inline graphs share it).
  std::int64_t vertex_cap() const;
  std::int64_t edge_cap() const;
};

Graph read_chaco(std::istream& in, const IoLimits& limits = {});
Graph read_chaco_file(const std::string& path, const IoLimits& limits = {});
void write_chaco(const Graph& g, std::ostream& out);
void write_chaco_file(const Graph& g, const std::string& path);

std::vector<int> read_partition(std::istream& in);
void write_partition(std::span<const int> parts, std::ostream& out);
void write_partition_file(std::span<const int> parts, const std::string& path);

// Durable partition records. Checkpoints (persist/checkpoint), durable
// cache entries (api/engine) and elite populations (evolve/elite_archive)
// all store one `<name> <value>` line per field, in the owner's order,
// then a partition file body. Owners keep their field names, their checks
// on what they decode and what damage means to them. Doubles go through
// real_text ("%.17g"), which round-trips bit for bit.

/// One header line's name and value; the value may hold spaces, no newline.
using RecordField = std::pair<std::string_view, std::string>;

std::string real_text(double v);

/// The header lines, then the partition body (none: a header-only record).
std::string encode_partition_record(std::initializer_list<RecordField> fields,
                                    std::span<const int> parts = {});

/// A decoded record. Each getter throws ffp::Error when the field is
/// absent, does not parse, or lies outside [lo, hi].
struct PartitionRecord {
  std::vector<std::pair<std::string, std::string>> fields;  ///< in order
  std::vector<int> parts;

  const std::string& text(std::string_view name) const;
  std::int64_t integer(std::string_view name, std::int64_t lo,
                       std::int64_t hi) const;
  double real(std::string_view name) const;
  std::uint64_t hex(std::string_view name) const;  ///< population digests
  /// Throws ffp::Error unless every part id lies in [0, k). Each owner
  /// checks against its own k: a Partition is sized by its largest id.
  void check_parts(std::int64_t k) const;
};

/// Reads one header line per name, in order, then the rest as
/// read_partition does. Throws ffp::Error, and only ffp::Error, on any
/// damage.
PartitionRecord decode_partition_record(
    std::string_view body, std::initializer_list<std::string_view> names);

}  // namespace ffp
