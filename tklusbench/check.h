#ifndef TKLUSBENCH_CHECK_H_
#define TKLUSBENCH_CHECK_H_

// Answer checking and latency summaries of the benchmark; kept apart from
// main.cc so selftest.cc can exercise them directly.

#include <optional>
#include <string>
#include <vector>

#include "core/query.h"

namespace tklusbench {

// Largest score difference two answers may show and still agree.
inline constexpr double kScoreTolerance = 1e-9;

// Compares an engine answer with the oracle's full ranking of every
// matching user (NaiveScanner run with k covering all users), tie-aware:
//  * the engine returns as many users as the oracle's top k;
//  * position by position, the scores equal the oracle's top-k scores;
//  * every returned user carries the oracle's own score for that user.
// Users with equal scores may come back in any order, as Alg. 5 pruning
// reorders them. Returns an empty string on agreement, else the first
// difference.
std::string CompareWithOracle(const std::vector<tklus::RankedUser>& got,
                              const std::vector<tklus::RankedUser>& oracle_all,
                              int k);

// Exact equality of two answers (uids and scores in order), for the wire
// answer against the in-process answer to the same query.
std::string CompareExact(const std::vector<tklus::RankedUser>& a,
                         const std::vector<tklus::RankedUser>& b);

// Nearest-rank percentile `p` in (0, 1) of `samples`. A tail percentile
// is only defined when at least ten samples lie beyond it: returns
// nullopt when fewer than ten samples exceed the rank.
std::optional<double> Percentile(std::vector<double> samples, double p);

double Median(std::vector<double> samples);

}  // namespace tklusbench

#endif  // TKLUSBENCH_CHECK_H_
