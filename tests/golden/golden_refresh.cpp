// Regenerates the pinned golden-cut file from the corpus definition in
// golden_corpus.hpp.  Run via scripts/refresh_golden.sh, or directly:
//
//   mgp_golden_refresh tests/golden/golden_cuts.txt

#include <cstdio>

#include "golden/golden_corpus.hpp"

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <output-file>\n", argv[0]);
    return 2;
  }
  std::FILE* f = std::fopen(argv[1], "w");
  if (f == nullptr) {
    std::perror(argv[1]);
    return 1;
  }
  std::fprintf(f,
               "# Golden partition corpus — pinned cuts and partition hashes.\n"
               "# Format: name k seed cut fnv1a64(part)\n"
               "# MLND ordering rows (*_mlnd, k 0): cut is nnz(L), the hash\n"
               "# covers the permutation.\n"
               "# Regenerate with scripts/refresh_golden.sh after intentional\n"
               "# behavioural changes; unexpected diffs are regressions.\n");
  for (const mgp::golden::GoldenEntry& e : mgp::golden::corpus()) {
    const mgp::golden::GoldenResult r = mgp::golden::run_entry(e);
    std::fprintf(f, "%s %d %llu %lld %016llx\n", e.name.c_str(),
                 static_cast<int>(e.k), static_cast<unsigned long long>(e.seed),
                 static_cast<long long>(r.cut),
                 static_cast<unsigned long long>(r.part_hash));
    std::printf("%-18s k=%d cut=%lld hash=%016llx\n", e.name.c_str(),
                static_cast<int>(e.k), static_cast<long long>(r.cut),
                static_cast<unsigned long long>(r.part_hash));
  }
  std::fclose(f);
  return 0;
}
