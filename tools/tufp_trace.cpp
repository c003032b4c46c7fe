// tufp_trace — inspect per-request decision provenance traces
// (DESIGN.md §14) written by `tufp_engine --trace` / `tufp_serve --trace`.
//
// Usage:
//   tufp_trace explain <trace.jsonl> <request-id>
//       Narrate every record for the request: what was decided, why, and
//       the evidence (path, density, bottleneck edge, payment, warm/fresh
//       SP provenance, lease window).
//   tufp_trace top <trace.jsonl> [--by outcome|edge|phase] [--limit N]
//       Aggregate the trace: decision counts per outcome (default),
//       bottleneck pressure per edge, or — for a collapsed-stack file
//       from `tufp_engine --flame` — self time per phase.
//   tufp_trace diff <a.jsonl> <b.jsonl>
//       Byte-compare the decision streams of two traces and report the
//       first divergent record. Exit 0 when identical, 1 on divergence —
//       the CI determinism gate runs this on a t1-vs-t4 pair.
//
// The parser is deliberately schema-narrow: it reads only the fields
// DecisionRecord::to_json emits, by literal key search, so the tool has
// no JSON dependency and stays honest about the byte-exact contract (a
// field it cannot find is a trace-format bug, not something to paper
// over).
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace {

[[noreturn]] void usage() {
  std::cerr << "usage: tufp_trace explain <trace.jsonl> <request-id>\n"
               "       tufp_trace top <trace.jsonl> [--by outcome|edge|phase]"
               " [--limit N]\n"
               "       tufp_trace diff <a.jsonl> <b.jsonl>\n";
  std::exit(2);
}

bool is_decision(const std::string& line) {
  return line.find("\"event\":\"decision\"") != std::string::npos;
}

// Raw value text of `"key":...` up to the next comma/brace at this
// nesting level; empty when the key is absent.
std::string field_text(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto at = line.find(needle);
  if (at == std::string::npos) return {};
  std::size_t i = at + needle.size();
  std::size_t depth = 0;
  bool quoted = false;
  const std::size_t begin = i;
  for (; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') quoted = false;
      continue;
    }
    if (c == '"') quoted = true;
    else if (c == '[' || c == '{') ++depth;
    else if (c == ']' || c == '}') {
      if (depth == 0) break;
      --depth;
    } else if (c == ',' && depth == 0) break;
  }
  return line.substr(begin, i - begin);
}

std::string string_field(const std::string& line, const std::string& key) {
  std::string raw = field_text(line, key);
  if (raw.size() >= 2 && raw.front() == '"' && raw.back() == '"') {
    return raw.substr(1, raw.size() - 2);
  }
  return raw;
}

double num_field(const std::string& line, const std::string& key,
                 double fallback = 0.0) {
  const std::string raw = field_text(line, key);
  if (raw.empty()) return fallback;
  try {
    return std::stod(raw);
  } catch (const std::exception&) {
    return fallback;  // quoted non-finite ("inf") and malformed alike
  }
}

std::int64_t int_field(const std::string& line, const std::string& key,
                       std::int64_t fallback = -1) {
  const std::string raw = field_text(line, key);
  if (raw.empty()) return fallback;
  try {
    return std::stoll(raw);
  } catch (const std::exception&) {
    return fallback;
  }
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream is(path);
  if (!is.good()) {
    std::cerr << "tufp_trace: cannot open " << path << "\n";
    std::exit(2);
  }
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

// ---------------------------------------------------------------- explain

void narrate(const std::string& line) {
  const std::string outcome = string_field(line, "outcome");
  const std::int64_t seq = int_field(line, "seq");
  const std::int64_t epoch = int_field(line, "epoch");
  const std::string path = field_text(line, "path");
  const bool warm = field_text(line, "warm_tree") == "true";
  std::cout << "request " << seq << " @ epoch " << epoch << " -> " << outcome
            << "\n";
  if (outcome == "admitted") {
    std::cout << "  admitted along path " << path << " ("
              << (warm ? "warm cross-epoch SP tree" : "fresh SP tree")
              << "), demand " << field_text(line, "demand") << ", bid "
              << field_text(line, "value") << ", charged "
              << field_text(line, "payment") << "\n"
              << "  lease granted at t=" << field_text(line, "admitted_at")
              << ", expires at t=" << field_text(line, "expires_at") << "\n";
  } else if (outcome == "no_path") {
    std::cout << "  the base topology never connects source to target: no "
                 "route exists at any capacity\n";
  } else if (outcome == "capacity_blocked") {
    const std::int64_t edge = int_field(line, "bottleneck_edge");
    if (edge >= 0) {
      std::cout << "  a route exists in the base topology, but saturation "
                   "cut every one this epoch; first edge held below the "
                   "usable floor on the canonical route: edge "
              << edge << "\n";
    } else {
      std::cout << "  saturation cut every route this epoch; no single "
                   "bottleneck edge to name\n";
    }
  } else if (outcome == "lost_auction") {
    std::cout << "  path " << path
              << " stayed feasible, but exit density "
              << field_text(line, "density")
              << " (demand/value x weighted length) never won an "
                 "auction iteration\n";
  } else if (outcome == "shard_conflict") {
    std::cout << "  path " << path
              << " fit at epoch start but lost the intra-epoch capacity "
                 "race; bottleneck edge "
              << int_field(line, "bottleneck_edge") << "\n";
  } else if (outcome == "invalid") {
    std::cout << "  malformed bid, shed before any auction\n";
  } else if (outcome == "lease_expired") {
    std::cout << "  lease granted at t=" << field_text(line, "admitted_at")
              << " expired at t=" << field_text(line, "expires_at")
              << "; demand " << field_text(line, "demand")
              << " reclaimed from path " << path << " at t="
              << field_text(line, "close_time") << "\n";
  } else {
    std::cout << "  (unrecognized outcome)\n";
  }
}

int cmd_explain(const std::string& path, const std::string& id) {
  std::int64_t want = 0;
  try {
    want = std::stoll(id);
  } catch (const std::exception&) {
    usage();
  }
  int found = 0;
  for (const std::string& line : read_lines(path)) {
    if (!is_decision(line)) continue;
    if (int_field(line, "seq") != want) continue;
    narrate(line);
    ++found;
  }
  if (found == 0) {
    std::cerr << "tufp_trace: no records for request " << want << " in "
              << path << "\n";
    return 1;
  }
  return 0;
}

// -------------------------------------------------------------------- top

void print_ranked(const std::map<std::string, std::int64_t>& counts,
                  const char* what, int limit) {
  std::vector<std::pair<std::string, std::int64_t>> rows(counts.begin(),
                                                         counts.end());
  std::stable_sort(rows.begin(), rows.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  if (limit > 0 && static_cast<int>(rows.size()) > limit) {
    rows.resize(static_cast<std::size_t>(limit));
  }
  for (const auto& [key, n] : rows) {
    std::cout << n << "\t" << what << " " << key << "\n";
  }
}

int cmd_top(const std::string& path, const std::string& by, int limit) {
  const std::vector<std::string> lines = read_lines(path);
  std::map<std::string, std::int64_t> counts;
  if (by == "outcome") {
    for (const std::string& line : lines) {
      if (is_decision(line)) ++counts[string_field(line, "outcome")];
    }
    print_ranked(counts, "outcome", limit);
  } else if (by == "edge") {
    // Bottleneck pressure: which base edges actually refuse admissions.
    for (const std::string& line : lines) {
      if (!is_decision(line)) continue;
      const std::int64_t edge = int_field(line, "bottleneck_edge");
      if (edge >= 0) ++counts["e" + std::to_string(edge)];
    }
    print_ranked(counts, "edge", limit);
  } else if (by == "phase") {
    // Collapsed-stack input (tufp_engine --flame): "a;b;leaf <usec>".
    for (const std::string& line : lines) {
      const auto space = line.rfind(' ');
      if (space == std::string::npos) continue;
      std::string stack = line.substr(0, space);
      const auto semi = stack.rfind(';');
      const std::string leaf =
          semi == std::string::npos ? stack : stack.substr(semi + 1);
      try {
        counts[leaf] += std::stoll(line.substr(space + 1));
      } catch (const std::exception&) {
      }
    }
    print_ranked(counts, "phase_usec", limit);
  } else {
    usage();
  }
  return 0;
}

// ------------------------------------------------------------------- diff

int cmd_diff(const std::string& path_a, const std::string& path_b) {
  std::vector<std::string> a, b;
  for (const std::string& line : read_lines(path_a)) {
    if (is_decision(line)) a.push_back(line);
  }
  for (const std::string& line : read_lines(path_b)) {
    if (is_decision(line)) b.push_back(line);
  }
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) {
      std::cout << "first divergence at record " << i << ":\n"
                << "- " << a[i] << "\n"
                << "+ " << b[i] << "\n";
      return 1;
    }
  }
  if (a.size() != b.size()) {
    std::cout << "record-count mismatch: " << a.size() << " vs " << b.size()
              << " (first " << n << " identical)\n";
    return 1;
  }
  std::cout << "identical: " << a.size() << " decision records\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) usage();
  const std::string& cmd = args[0];
  if (cmd == "explain" && args.size() == 3) {
    return cmd_explain(args[1], args[2]);
  }
  if (cmd == "diff" && args.size() == 3) return cmd_diff(args[1], args[2]);
  if (cmd == "top" && args.size() >= 2) {
    std::string by = "outcome";
    int limit = 0;
    for (std::size_t i = 2; i < args.size(); ++i) {
      if (args[i] == "--by" && i + 1 < args.size()) by = args[++i];
      else if (args[i] == "--limit" && i + 1 < args.size()) {
        try {
          limit = std::stoi(args[++i]);
        } catch (const std::exception&) {
          usage();
        }
      } else {
        usage();
      }
    }
    return cmd_top(args[1], by, limit);
  }
  usage();
}
