#include "check.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

namespace tklusbench {

namespace {

std::string Describe(const char* what, size_t pos, long long uid, double got,
                     double want) {
  char buf[200];
  std::snprintf(buf, sizeof(buf), "%s at rank %zu (uid %lld): %.17g vs %.17g",
                what, pos, uid, got, want);
  return buf;
}

}  // namespace

std::string CompareWithOracle(const std::vector<tklus::RankedUser>& got,
                              const std::vector<tklus::RankedUser>& oracle_all,
                              int k) {
  const size_t want_n =
      std::min(oracle_all.size(), static_cast<size_t>(std::max(k, 0)));
  if (got.size() != want_n) {
    return "answer has " + std::to_string(got.size()) + " users, oracle " +
           std::to_string(want_n);
  }
  std::unordered_map<tklus::UserId, double> oracle_score;
  oracle_score.reserve(oracle_all.size());
  for (const tklus::RankedUser& u : oracle_all) oracle_score[u.uid] = u.score;
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::fabs(got[i].score - oracle_all[i].score) > kScoreTolerance) {
      return Describe("score list differs", i,
                      static_cast<long long>(got[i].uid), got[i].score,
                      oracle_all[i].score);
    }
    const auto it = oracle_score.find(got[i].uid);
    if (it == oracle_score.end()) {
      return Describe("user unknown to the oracle", i,
                      static_cast<long long>(got[i].uid), got[i].score, 0.0);
    }
    if (std::fabs(got[i].score - it->second) > kScoreTolerance) {
      return Describe("user carries a wrong score", i,
                      static_cast<long long>(got[i].uid), got[i].score,
                      it->second);
    }
  }
  return "";
}

std::string CompareExact(const std::vector<tklus::RankedUser>& a,
                         const std::vector<tklus::RankedUser>& b) {
  if (a.size() != b.size()) {
    return "answers have " + std::to_string(a.size()) + " and " +
           std::to_string(b.size()) + " users";
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].uid != b[i].uid || a[i].score != b[i].score) {
      return Describe("answers differ", i, static_cast<long long>(a[i].uid),
                      a[i].score, b[i].score);
    }
  }
  return "";
}

std::optional<double> Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return std::nullopt;
  const size_t n = samples.size();
  // Nearest rank: the smallest value with at least p·n samples at or
  // below it; the samples above that rank are the tail.
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (p > 0.5 && n - rank < 10) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5).value_or(0.0);
}

}  // namespace tklusbench
