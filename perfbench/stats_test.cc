// Unit test for the benchmark's own arithmetic (measure.h). Exits non-zero
// on the first failed check; run.py runs it before every benchmark run.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "measure.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "stats_test:%d: FAILED %s\n", line, what);
    ++failures;
  }
}

#define CHECK(cond) Check((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // Unsorted on purpose.
  return v;
}

void TestTailPercentile() {
  using perfbench::TailPercentile;
  // 2000 samples: p99 has 20 samples beyond it, so p99 itself is reported.
  auto t = TailPercentile(Range(2000), 0.99);
  CHECK(t.ok);
  CHECK(Near(t.value, 1980));
  CHECK(Near(t.quantile, 0.99));
  CHECK(t.beyond == 20);
  CHECK(t.samples == 2000);

  // 500 samples: p99 would leave 5 beyond; the rule lowers the rank until
  // exactly 10 remain, i.e. the 490th value (quantile 0.98).
  t = TailPercentile(Range(500), 0.99);
  CHECK(t.ok);
  CHECK(Near(t.value, 490));
  CHECK(t.beyond == 10);
  CHECK(Near(t.quantile, 0.98));

  // Boundary: 1000 samples is the smallest count where p99 keeps 10 beyond.
  t = TailPercentile(Range(1000), 0.99);
  CHECK(Near(t.value, 990) && t.beyond == 10);

  // p50 of an even count by nearest rank is the lower middle value.
  t = TailPercentile(Range(100), 0.5);
  CHECK(Near(t.value, 50));

  // Too few samples: no percentile has 10 samples beyond it.
  CHECK(!TailPercentile(Range(10), 0.99).ok);
  CHECK(TailPercentile(Range(11), 0.99).ok);
  CHECK(Near(TailPercentile(Range(11), 0.99).value, 1));
}

void TestMedian() {
  using perfbench::Median;
  CHECK(Near(Median({3, 1, 2}), 2));
  CHECK(Near(Median({4, 1, 3, 2}), 2.5));
  CHECK(Near(Median({}), 0));
}

void TestMedianRate() {
  using perfbench::MedianRate;
  // 10 s at 100 completions/s, except that second 3 stalls (10
  // completions) and second 7 bursts (300). Ten chunks of 111 completions:
  // the median chunk rate ignores the stall and the burst.
  std::vector<double> done;
  for (int w = 0; w < 10; ++w) {
    const int n = w == 3 ? 10 : (w == 7 ? 300 : 100);
    for (int i = 1; i <= n; ++i) done.push_back(w + static_cast<double>(i) / n);
  }
  CHECK(done.size() == 1110);
  const double r = MedianRate(done, 10);
  CHECK(r > 99 && r < 101);
  // Even completions: every chunk reads the exact rate, in any input order.
  std::vector<double> even;
  for (int i = 100; i >= 1; --i) even.push_back(i * 0.25);
  CHECK(Near(MedianRate(even, 4), 4));
  CHECK(Near(MedianRate(even, 1), 4));
  CHECK(Near(MedianRate({}, 4), 0));
}

void TestOpenLoop() {
  using namespace perfbench;
  OpenLoopSchedule s{1'000'000, 500'000, 250'000};
  CHECK(s.Due(0) == 1'250'000);
  CHECK(s.Due(4) == 3'250'000);

  // Sent on time, done 80 us later: latency 80 us, not late.
  CHECK(LatencyFromDue(s.Due(1), s.Due(1) + 80'000) == 80'000);
  CHECK(GeneratorLateness(s.Due(1), s.Due(1), s.Due(0) + 10'000) == 0);

  // A stall: request 2's predecessor finished 300 us after request 2 was
  // due. The 300 us wait is program latency (charged from the due time),
  // and only the 5 us the generator took after that is lateness.
  const int64_t due = s.Due(2);
  const int64_t prev_done = due + 300'000;
  const int64_t sent = prev_done + 5'000;
  const int64_t done = sent + 50'000;
  CHECK(LatencyFromDue(due, done) == 355'000);
  CHECK(GeneratorLateness(due, sent, prev_done) == 5'000);

  // Generator overslept its timer by 40 us with the connection idle.
  CHECK(GeneratorLateness(due, due + 40'000, due - 100'000) == 40'000);
  // Sending early never counts as negative lateness.
  CHECK(GeneratorLateness(due, due - 1'000, 0) == 0);
}

void TestSelfTimes() {
  using perfbench::Span;
  // root [0,100) with children [10,30) and [20,50) (overlapping, covering
  // 40) and a grandchild [12,18) under the first child.
  std::vector<Span> spans = {
      {1, 0, 7, "request", 0, 100},
      {2, 1, 7, "parse", 10, 30},
      {3, 1, 7, "execute", 20, 50},
      {4, 2, 7, "lex", 12, 18},
  };
  auto self = perfbench::SelfTimes(spans);
  CHECK(self.size() == 4);
  CHECK(self[0] == 60);   // 100 - union([10,50)).
  CHECK(self[1] == 14);   // 20 - 6 (grandchild counts for its parent only).
  CHECK(self[2] == 30);
  CHECK(self[3] == 6);

  // Children partly outside the parent are clipped to it.
  std::vector<Span> clipped = {{1, 0, 1, "a", 10, 20}, {2, 1, 1, "b", 5, 15}};
  self = perfbench::SelfTimes(clipped);
  CHECK(self[0] == 5);

  CHECK(perfbench::MedianSelfUs(spans, perfbench::SelfTimes(spans),
                                "execute") == 0.03);

  // The recorder nests spans and closes the innermost first.
  perfbench::SpanLog log(3);
  {
    perfbench::ScopedSpan outer(&log, "outer", 0, 9);
    perfbench::ScopedSpan inner(&log, "inner", outer.id(), 9);
  }
  CHECK(log.spans().size() == 2);
  CHECK(log.spans()[1].parent == log.spans()[0].id);
  CHECK(log.spans()[0].end_ns >= log.spans()[1].end_ns);
  CHECK((log.spans()[0].id >> 40) == 3);
  perfbench::ScopedSpan untraced(nullptr, "none", 0, 0);
  CHECK(untraced.id() == 0);
}

void TestRatios() {
  auto r = perfbench::HitRatio(30, 90);
  CHECK(Near(r.base, 120));
  CHECK(Near(r.value(), 0.25));
  CHECK(Near(perfbench::HitRatio(0, 0).value(), 0));
  CHECK(Near((perfbench::Ratio{5, 0}).value(), 0));
}

}  // namespace

int main() {
  TestTailPercentile();
  TestMedian();
  TestMedianRate();
  TestOpenLoop();
  TestSelfTimes();
  TestRatios();
  if (failures != 0) {
    std::fprintf(stderr, "stats_test: %d check(s) failed\n", failures);
    return 1;
  }
  std::fprintf(stderr, "stats_test: all checks passed\n");
  return 0;
}
