// Small argument-parsing helpers shared by the CLI tools. Header-only on
// purpose: tools/*.cpp each build into their own binary, so shared logic
// must not live in a tool translation unit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "tufp/graph/dijkstra.hpp"
#include "tufp/util/parallel.hpp"

namespace tufp::cli {

// "a,b,,c" -> {"a", "b", "c"} (empty tokens skipped).
inline std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

// Numbers parse whole: the one numeric parser of every tool, for flags
// and wire tokens alike. std::stoi and friends stop at the first
// character they cannot use, so without the length check `50abc` would
// read as 50 and `35.5` as 35. Trailing bytes throw std::invalid_argument
// like any other malformed number.
inline void require_whole(const std::string& token, std::size_t pos) {
  if (pos != token.size()) {
    throw std::invalid_argument("trailing bytes in '" + token + "'");
  }
}
inline int parse_int(const std::string& token) {
  std::size_t pos = 0;
  const int v = std::stoi(token, &pos);
  require_whole(token, pos);
  return v;
}
inline std::int64_t parse_int64(const std::string& token) {
  std::size_t pos = 0;
  const std::int64_t v = std::stoll(token, &pos);
  require_whole(token, pos);
  return v;
}
inline std::uint64_t parse_uint64(const std::string& token) {
  std::size_t pos = 0;
  const std::uint64_t v = std::stoull(token, &pos);
  require_whole(token, pos);
  return v;
}
inline double parse_double(const std::string& token) {
  std::size_t pos = 0;
  const double v = std::stod(token, &pos);
  require_whole(token, pos);
  return v;
}

// Runs a tool's argument parser. The parsers above report a malformed or
// out-of-range number by throwing std::invalid_argument or
// std::out_of_range (both std::logic_error); that is a usage error like
// any other bad flag — one line on stderr and exit 2, never an abort.
template <typename Parse>
auto parse_args(const std::string& tool, Parse parse) {
  try {
    return parse();
  } catch (const std::logic_error& e) {
    std::cerr << tool << ": malformed or out-of-range number (" << e.what()
              << ")\n";
    std::exit(2);
  }
}

// The shared --sp-kernel vocabulary. Every tool that exposes the flag
// parses it here so the names — and the rejection text — cannot drift
// apart between binaries. Unknown names are a usage error: exit 2 with
// one canonical message.
inline SpKernel parse_sp_kernel(const std::string& tool,
                                const std::string& name) {
  if (name == "auto") return SpKernel::kAuto;
  if (name == "heap") return SpKernel::kHeap;
  if (name == "bucket") return SpKernel::kBucket;
  std::cerr << tool << ": unknown --sp-kernel '" << name
            << "' (expected auto|heap|bucket)\n";
  std::exit(2);
}

// The shared --threads contract: 0 is the runtime default and a positive
// count asks for that many threads; a negative count is a usage error.
// An explicit positive count in a build without OpenMP is refused too
// (deterministic output would be identical either way, but wall-clock
// numbers would not mean what the caller asked for). Identical messages
// and exit code in every tool.
inline void require_threads_supported(const std::string& tool, int threads) {
  if (threads < 0) {
    std::cerr << tool << ": --threads " << threads
              << " is negative (expected 0 for the runtime default, or a "
                 "thread count)\n";
    std::exit(2);
  }
  if (threads > 0 && !openmp_available()) {
    std::cerr << tool << ": --threads " << threads
              << " requires an OpenMP build (rebuild with an OpenMP-capable "
                 "toolchain, or drop --threads)\n";
    std::exit(2);
  }
}

}  // namespace tufp::cli
