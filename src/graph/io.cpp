#include "graph/io.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "persist/atomic_file.hpp"
#include "util/strings.hpp"

namespace ffp {

namespace {

[[noreturn]] void fail(std::int64_t line_no, const std::string& msg) {
  std::ostringstream os;
  os << "graph I/O error at line " << line_no << ": " << msg;
  throw Error(os.str());
}

bool is_comment(std::string_view line) {
  const auto t = trim(line);
  return !t.empty() && (t[0] == '%' || t[0] == '#');
}

/// Reads the next non-comment line; returns false at EOF.
bool next_line(std::istream& in, std::string& line, std::int64_t& line_no) {
  while (std::getline(in, line)) {
    ++line_no;
    if (!is_comment(line)) return true;
  }
  return false;
}

/// Reservations trust the declared size only up to this many elements — a
/// lying header must not be able to allocate gigabytes before the parser
/// discovers the file is ten lines long.
constexpr std::int64_t kTrustedReserve = 1 << 22;

[[noreturn]] void bad_field(std::string_view name) {
  throw Error("record field '" + std::string(name) +
              "' is missing or malformed");
}

}  // namespace

// The hard ceiling a header's vertex count must fit regardless of limits:
// VertexId is 32-bit, and a silently truncating cast used to be the
// overflow hole the service hardening closed.
std::int64_t IoLimits::vertex_cap() const {
  constexpr std::int64_t id_max = std::numeric_limits<VertexId>::max();
  return max_vertices > 0 ? std::min(max_vertices, id_max) : id_max;
}

std::int64_t IoLimits::edge_cap() const {
  return max_edges > 0 ? max_edges : std::numeric_limits<std::int64_t>::max();
}

Graph read_chaco(std::istream& in, const IoLimits& limits) {
  std::string line;
  std::int64_t line_no = 0;
  if (!next_line(in, line, line_no)) fail(line_no, "missing header line");

  const auto header = split_ws(line);
  if (header.size() < 2 || header.size() > 4) {
    fail(line_no, "header must be 'n m [fmt [ncon]]'");
  }
  const auto n_opt = parse_int(header[0]);
  const auto m_opt = parse_int(header[1]);
  if (!n_opt || !m_opt || *n_opt < 0 || *m_opt < 0) {
    fail(line_no, "invalid n or m in header");
  }
  if (*n_opt > limits.vertex_cap()) {
    fail(line_no, "header declares " + std::to_string(*n_opt) +
                      " vertices, limit is " +
                      std::to_string(limits.vertex_cap()));
  }
  if (*m_opt > limits.edge_cap()) {
    fail(line_no, "header declares " + std::to_string(*m_opt) +
                      " edges, limit is " + std::to_string(limits.edge_cap()));
  }
  const auto n = static_cast<VertexId>(*n_opt);
  const std::int64_t m = *m_opt;

  int fmt = 0;
  if (header.size() >= 3) {
    const auto f = parse_int(header[2]);
    if (!f || *f < 0 || *f > 111 || (*f % 10) > 1 || (*f / 10 % 10) > 1 ||
        (*f / 100) > 1) {
      fail(line_no, "invalid fmt field (expected digits from {0,1}: 0, 1, "
                    "10, 11, 100, 101, 110, 111)");
    }
    fmt = static_cast<int>(*f);
  }
  const bool has_vertex_sizes = (fmt / 100) % 10 != 0;
  const bool has_vertex_weights = (fmt / 10) % 10 != 0;
  const bool has_edge_weights = fmt % 10 != 0;
  int ncon = has_vertex_weights ? 1 : 0;
  if (header.size() == 4) {
    const auto c = parse_int(header[3]);
    if (!c || *c < 0 || *c > 64) fail(line_no, "invalid ncon field");
    ncon = static_cast<int>(*c);
  }

  std::vector<WeightedEdge> edges;
  edges.reserve(static_cast<std::size_t>(std::min(m, kTrustedReserve)));
  std::vector<Weight> vweights;
  if (has_vertex_weights) {
    vweights.reserve(static_cast<std::size_t>(
        std::min<std::int64_t>(n, kTrustedReserve)));
  }
  // Epoch stamps for duplicate-neighbor detection: seen[u] == v means u
  // already appeared on v's line. O(1) per neighbor, one array overall.
  // Grown on demand (doubling, bounded by n) rather than allocated to the
  // declared n up front, so a lying header alone cannot trigger a giant
  // allocation — growth is driven by ids the file actually contains.
  std::vector<VertexId> seen;
  const auto seen_slot = [&seen, n](VertexId id) -> VertexId& {
    const auto needed = static_cast<std::size_t>(id) + 1;
    if (seen.size() < needed) {
      auto grown = std::max(needed, seen.size() * 2);
      grown = std::min(grown, static_cast<std::size_t>(n));
      seen.resize(grown, -1);
    }
    return seen[static_cast<std::size_t>(id)];
  };

  for (VertexId v = 0; v < n; ++v) {
    if (!next_line(in, line, line_no)) {
      fail(line_no, "unexpected EOF: expected " + std::to_string(n) +
                        " vertex lines, got " + std::to_string(v));
    }
    const auto tok = split_ws(line);
    std::size_t i = 0;
    if (has_vertex_sizes) ++i;  // accept and ignore vertex size
    if (has_vertex_weights) {
      if (i + static_cast<std::size_t>(ncon) > tok.size()) {
        fail(line_no, "missing vertex weight(s)");
      }
      // Multi-constraint files: use the first weight (ffp is single
      // constraint; documented in the header).
      const auto w = parse_double(tok[i]);
      if (!w || !std::isfinite(*w) || *w <= 0) {
        fail(line_no, "invalid vertex weight (must be finite and > 0)");
      }
      vweights.push_back(*w);
      i += static_cast<std::size_t>(ncon);
    }
    while (i < tok.size()) {
      const auto u = parse_int(tok[i++]);
      if (!u || *u < 1 || *u > n) {
        fail(line_no, "neighbor id out of range (ids are 1-based)");
      }
      Weight w = 1.0;
      if (has_edge_weights) {
        if (i >= tok.size()) fail(line_no, "missing edge weight");
        const auto we = parse_double(tok[i++]);
        if (!we || !std::isfinite(*we) || *we < 0) {
          fail(line_no, "invalid edge weight (must be finite and >= 0)");
        }
        w = *we;
      }
      const auto nb = static_cast<VertexId>(*u - 1);
      if (nb == v) {
        fail(line_no, "self loop on vertex " + std::to_string(v + 1) +
                          " (1-based)");
      }
      VertexId& stamp = seen_slot(nb);
      if (stamp == v) {
        fail(line_no, "duplicate edge: neighbor " + std::to_string(*u) +
                          " listed twice for vertex " + std::to_string(v + 1) +
                          " (1-based)");
      }
      stamp = v;
      if (nb > v) {  // each edge appears twice; store the forward copy
        if (static_cast<std::int64_t>(edges.size()) >= limits.edge_cap()) {
          fail(line_no, "edge limit " + std::to_string(limits.edge_cap()) +
                            " exceeded");
        }
        edges.push_back({v, nb, w});
      }
    }
  }

  if (static_cast<std::int64_t>(edges.size()) != m) {
    fail(line_no, "header declared " + std::to_string(m) + " edges, found " +
                      std::to_string(edges.size()));
  }
  return Graph::from_edges(n, edges, std::move(vweights));
}

Graph read_chaco_file(const std::string& path, const IoLimits& limits) {
  std::ifstream in(path);
  if (!in.good()) {
    // A user-named file: the message names it, not the code that read it.
    throw Error("cannot open for reading: " + path + ": " +
                std::strerror(errno));
  }
  return read_chaco(in, limits);
}

void write_chaco(const Graph& g, std::ostream& out) {
  // Decide the fmt field: emit weights only when non-trivial.
  bool vw = false;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.vertex_weight(v) != 1.0) {
      vw = true;
      break;
    }
  }
  bool ew = false;
  for (Weight w : g.arc_weights()) {
    if (w != 1.0) {
      ew = true;
      break;
    }
  }
  const int fmt = (vw ? 10 : 0) + (ew ? 1 : 0);
  out << std::setprecision(17);  // round-trip doubles exactly
  out << g.num_vertices() << ' ' << g.num_edges();
  if (fmt != 0) out << ' ' << (fmt < 10 ? "0" : "") << fmt;
  out << '\n';
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    bool first = true;
    if (vw) {
      out << g.vertex_weight(v);
      first = false;
    }
    const auto nbrs = g.neighbors(v);
    const auto ws = g.neighbor_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (!first) out << ' ';
      first = false;
      out << (nbrs[i] + 1);
      if (ew) out << ' ' << ws[i];
    }
    out << '\n';
  }
}

void write_chaco_file(const Graph& g, const std::string& path) {
  // Atomic replace (persist/atomic_file.hpp): a crash or full disk mid-
  // write leaves the previous file, never a torn one.
  std::ostringstream out;
  write_chaco(g, out);
  persist::atomic_write_file(path, out.str());
}

std::vector<int> read_partition(std::istream& in) {
  std::string line;
  std::int64_t line_no = 0;
  std::vector<int> parts;
  while (next_line(in, line, line_no)) {
    const auto t = trim(line);
    if (t.empty()) continue;
    const auto p = parse_int(t);
    if (!p || *p < 0 || *p > std::numeric_limits<int>::max()) {
      fail(line_no, "invalid part id");
    }
    parts.push_back(static_cast<int>(*p));
  }
  return parts;
}

void write_partition(std::span<const int> parts, std::ostream& out) {
  out << encode_partition_record({}, parts);
}

void write_partition_file(std::span<const int> parts,
                          const std::string& path) {
  // Atomic replace, same contract as write_chaco_file: downstream tooling
  // reading a .part mid-rewrite sees the old partition or the new one.
  persist::atomic_write_file(path, encode_partition_record({}, parts));
}

std::string real_text(double v) { return format("%.17g", v); }

std::string encode_partition_record(std::initializer_list<RecordField> fields,
                                    std::span<const int> parts) {
  std::string body;
  body.reserve(64 + 4 * parts.size());
  for (const auto& [name, value] : fields) {
    body.append(name).append(" ").append(value).append("\n");
  }
  char digits[16];
  for (const int p : parts) {
    body.append(digits, std::to_chars(digits, digits + sizeof(digits), p).ptr);
    body += '\n';
  }
  return body;
}

const std::string& PartitionRecord::text(std::string_view name) const {
  for (const auto& [n, v] : fields) {
    if (n == name) return v;
  }
  bad_field(name);
}

std::int64_t PartitionRecord::integer(std::string_view name, std::int64_t lo,
                                      std::int64_t hi) const {
  const auto v = parse_int(text(name));
  if (!v.has_value() || *v < lo || *v > hi) bad_field(name);
  return *v;
}

double PartitionRecord::real(std::string_view name) const {
  const auto v = parse_double(text(name));
  if (!v.has_value()) bad_field(name);
  return *v;
}

std::uint64_t PartitionRecord::hex(std::string_view name) const {
  const std::string& s = text(name);
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v, 16);
  if (ec != std::errc() || end != s.data() + s.size()) bad_field(name);
  return v;
}

void PartitionRecord::check_parts(std::int64_t k) const {
  for (const int p : parts) {
    if (p >= k) {
      throw Error("record part id " + std::to_string(p) + " is outside [0, " +
                  std::to_string(k) + ")");
    }
  }
}

PartitionRecord decode_partition_record(
    std::string_view body, std::initializer_list<std::string_view> names) {
  PartitionRecord out;
  std::size_t pos = 0;
  for (const std::string_view name : names) {
    const std::size_t end = std::min(body.find('\n', pos), body.size());
    const std::string_view line = body.substr(pos, end - pos);
    if (line.size() <= name.size() || !starts_with(line, name) ||
        line[name.size()] != ' ') {
      bad_field(name);
    }
    out.fields.emplace_back(name, line.substr(name.size() + 1));
    pos = std::min(end + 1, body.size());
  }
  std::istringstream tail{std::string(body.substr(pos))};
  out.parts = read_partition(tail);
  return out;
}

}  // namespace ffp
