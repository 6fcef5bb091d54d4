// WOM-code explorer: brute-force search for <2^k>^t/n codes and a quick
// look at what each found code would buy in a WOM-code PCM.
//
// For each requested (k, t) it finds the smallest n (wit count) admitting a
// valid code within the node budget, prints the resulting tables for small
// codes, and reports the code's capacity overhead and Section 3.2 latency
// bound next to the hand-built families.
//
// Usage: code_explorer [kmax=2 (1-4)] [tmax=3 (1-8)] [nmax=7 (1-20)]
//        [budget=20000000] [show=1]

#include <cstdint>
#include <cstdio>
#include <exception>

#include "womcode.h"

using namespace wompcm;

namespace {

int explorer_main(const KeyValueConfig& args) {
  // search_wom_code handles k <= 4 data bits and n <= 20 wits.
  const auto kmax = static_cast<unsigned>(args.get_int_in("kmax", 2, 1, 4));
  const auto tmax = static_cast<unsigned>(args.get_int_in("tmax", 3, 1, 8));
  const auto nmax = static_cast<unsigned>(args.get_int_in("nmax", 7, 1, 20));
  const auto budget = static_cast<std::uint64_t>(
      args.get_int_in("budget", 20000000, 1, INT64_MAX));
  const bool show = args.get_bool_or("show", true);

  const PcmTiming timing;
  const double S = static_cast<double>(timing.set_ns) /
                   static_cast<double>(timing.reset_ns);

  std::printf("Searching for <2^k>^t/n WOM-codes (n <= %u, budget %llu "
              "nodes)\n\n",
              nmax, static_cast<unsigned long long>(budget));

  TextTable t({"k", "t", "smallest n found", "overhead", "latency bound",
               "DFS nodes"});
  for (unsigned k = 1; k <= kmax; ++k) {
    for (unsigned tw = 1; tw <= tmax; ++tw) {
      std::optional<CodeSearchResult> found;
      unsigned n_found = 0;
      for (unsigned n = k; n <= nmax && !found; ++n) {
        CodeSearchParams p;
        p.data_bits = k;
        p.wits = n;
        p.writes = tw;
        p.max_nodes = budget;
        found = search_wom_code(p);
        if (found) n_found = n;
      }
      const double bound =
          (static_cast<double>(tw) - 1.0 + S) / (static_cast<double>(tw) * S);
      if (found) {
        t.add_row({std::to_string(k), std::to_string(tw),
                   std::to_string(n_found),
                   TextTable::fmt(found->code->overhead() * 100.0, 0) + "%",
                   TextTable::fmt(bound), std::to_string(found->nodes)});
        if (show && n_found <= 5) {
          const auto* tab =
              dynamic_cast<const TabularCode*>(found->code.get());
          if (tab != nullptr) {
            std::printf("  <2^%u>^%u/%u tables:", k, tw, n_found);
            for (unsigned g = 0; g < tw; ++g) {
              std::printf("  gen%u:", g);
              for (const BitVec& pat : tab->table()[g]) {
                std::printf(" %s", pat.to_string().c_str());
              }
            }
            std::printf("\n");
          }
        }
      } else {
        t.add_row({std::to_string(k), std::to_string(tw),
                   "none <= " + std::to_string(nmax), "-", TextTable::fmt(bound),
                   "-"});
      }
    }
  }
  std::printf("\n%s\n", t.to_text().c_str());
  std::printf(
      "The classic <2^2>^2/3 code (Table 1 of the paper) appears as the\n"
      "k=2, t=2 row; higher rewrite limits lower the latency bound but the\n"
      "wit cost grows quickly — the tradeoff PCM-refresh sidesteps.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return explorer_main(KeyValueConfig::from_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "code_explorer: %s\n", e.what());
    return 1;
  }
}
