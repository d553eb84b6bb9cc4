// Self-tests of the benchmark's own checking code: the tie-aware oracle
// comparator and the rule that no tail percentile is reported with fewer
// than ten samples beyond it. Exits 0 when every case passes.
#include <cstdio>
#include <vector>

#include "check.h"

namespace {

using tklus::RankedUser;
using tklusbench::CompareWithOracle;
using tklusbench::Percentile;

int failures = 0;

void Expect(bool ok, const char* what) {
  std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

RankedUser User(tklus::UserId uid, double score) {
  return RankedUser{uid, score, {}};
}

}  // namespace

int main() {
  // The oracle ranks every matching user; users 7 and 3 tie.
  const std::vector<RankedUser> oracle = {User(1, 0.9), User(7, 0.5),
                                          User(3, 0.5), User(4, 0.2)};
  Expect(CompareWithOracle({User(1, 0.9), User(7, 0.5), User(3, 0.5)}, oracle,
                           3)
             .empty(),
         "the oracle's own top 3 passes");
  Expect(CompareWithOracle({User(1, 0.9), User(3, 0.5), User(7, 0.5)}, oracle,
                           3)
             .empty(),
         "two swapped equal-score users pass");
  Expect(CompareWithOracle({User(1, 0.9), User(3, 0.5)}, oracle, 2).empty(),
         "a tied user cut at rank k passes");
  Expect(!CompareWithOracle({User(1, 0.9), User(7, 0.5 + 1e-6), User(3, 0.5)},
                            oracle, 3)
              .empty(),
         "a planted score change fails");
  Expect(!CompareWithOracle({User(1, 0.9), User(4, 0.5), User(3, 0.5)},
                            oracle, 3)
              .empty(),
         "a user carrying another user's score fails");
  Expect(!CompareWithOracle({User(1, 0.9), User(7, 0.5)}, oracle, 3).empty(),
         "a missing user fails");
  Expect(!CompareWithOracle({User(1, 0.9), User(9, 0.5), User(3, 0.5)},
                            oracle, 3)
              .empty(),
         "a user unknown to the oracle fails");
  Expect(CompareWithOracle({}, {}, 10).empty(), "an empty answer to no match");

  std::vector<double> samples;
  for (int i = 1; i <= 999; ++i) samples.push_back(i);
  Expect(!Percentile(samples, 0.99).has_value(),
         "p99 of 999 samples (nine beyond rank 990) is withheld");
  samples.push_back(1000);
  const auto p99 = Percentile(samples, 0.99);
  Expect(p99.has_value() && *p99 == 990.0,
         "p99 of 1000 samples is the 990th, with ten beyond it");
  Expect(!Percentile({1, 2, 3}, 0.9).has_value(), "no tail from three samples");
  const auto median = Percentile({5, 1, 3}, 0.5);
  Expect(median.has_value() && *median == 3.0, "median of three");
  Expect(!Percentile({}, 0.5).has_value(), "nothing from no samples");

  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
