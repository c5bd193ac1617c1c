#include "common.h"

#include <algorithm>
#include <cmath>

namespace lqbench {

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = q / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50);
}

Tail TailOf(const std::vector<double>& samples, int percentile) {
  Tail tail;
  tail.samples = samples.size();
  tail.percentile = percentile;
  tail.value = Percentile(samples, percentile);
  tail.beyond = static_cast<size_t>(
      std::count_if(samples.begin(), samples.end(),
                    [&](double s) { return s > tail.value; }));
  return tail;
}

uint64_t Fnv1a(std::string_view bytes, uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

uint64_t Mix(uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

uint64_t AnswerHash(const lqdb::Relation& rel) {
  uint64_t sum = Mix(static_cast<uint64_t>(rel.arity()) << 32 | rel.size());
  for (const lqdb::Tuple& t : rel.tuples()) {
    uint64_t h = 0xcbf29ce484222325ull;
    for (lqdb::Value c : t) h = Mix(h ^ c);
    sum += Mix(h);
  }
  return sum;
}

}  // namespace lqbench
