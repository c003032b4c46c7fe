// Small argument-parsing helpers shared by the CLI tools. Header-only on
// purpose: tools/*.cpp each build into their own binary, so shared logic
// must not live in a tool translation unit.
#pragma once

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

// Runs a tool's argument parser. std::stoi and friends report a malformed
// or out-of-range number by throwing std::invalid_argument or
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

// The shared --threads contract: an explicit positive thread count in a
// build without OpenMP is refused (deterministic output would be
// identical either way, but wall-clock numbers would not mean what the
// caller asked for). Identical message and exit code in every tool.
inline void require_threads_supported(const std::string& tool, int threads) {
  if (threads > 0 && !openmp_available()) {
    std::cerr << tool << ": --threads " << threads
              << " requires an OpenMP build (rebuild with an OpenMP-capable "
                 "toolchain, or drop --threads)\n";
    std::exit(2);
  }
}

}  // namespace tufp::cli
