// Tests of the benchmark's own accounting and of its float64 oracle.
//
//   cmake --build .bench_build --target e2ebench_tests && .bench_build/e2ebench_tests
#include <cmath>
#include <cstdio>
#include <memory>

#include "deploy/fold_bn.hpp"
#include "nn/activations.hpp"
#include "nn/dwconv.hpp"
#include "nn/pooling.hpp"
#include "nn/pwconv.hpp"
#include "nn/space_to_depth.hpp"
#include "ref64.hpp"
#include "stats.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what, int line) {
    if (!ok) {
        ++g_failures;
        std::fprintf(stderr, "FAILED line %d: %s\n", line, what);
    }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b, double tol = 1e-12) { return std::abs(a - b) <= tol; }

using e2e::Clock;
using ms = std::chrono::duration<double, std::milli>;

Clock::time_point at_ms(Clock::time_point t0, double v) {
    return t0 + std::chrono::duration_cast<Clock::duration>(ms(v));
}

void test_percentile() {
    CHECK(e2e::percentile({}, 0.5) == 0.0);
    CHECK(e2e::percentile({7.0}, 0.9) == 7.0);
    // Type-7 interpolation: position q * (n - 1) in the sorted sample.
    const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};  // sorted: 1 2 3 4
    CHECK(near(e2e::percentile(v, 0.0), 1.0));
    CHECK(near(e2e::percentile(v, 0.5), 2.5));
    CHECK(near(e2e::percentile(v, 0.9), 3.7));
    CHECK(near(e2e::percentile(v, 1.0), 4.0));
    CHECK(near(e2e::median({5.0, 1.0, 3.0}), 3.0));
}

void test_split_percentile() {
    // Under 40 samples per part it is the plain percentile.
    std::vector<double> small(100);
    for (int i = 0; i < 100; ++i) small[i] = i;
    CHECK(near(e2e::split_percentile(small, 0.9, 5), e2e::percentile(small, 0.9)));
    // Five parts of 40; a stall (values of 1000) fills half of part 2 only.
    std::vector<double> v;
    for (int p = 0; p < 5; ++p)
        for (int i = 0; i < 40; ++i) v.push_back(p == 1 && i >= 20 ? 1000.0 : 10.0 + i);
    CHECK(e2e::percentile(v, 0.9) > 50.0);  // the stall reaches the whole-run p90
    const double per_part = e2e::percentile(std::vector<double>(v.begin(), v.begin() + 40), 0.9);
    CHECK(near(e2e::split_percentile(v, 0.9, 5), per_part));  // and not the split one
}

void test_schedule_and_lateness() {
    const Clock::time_point t0 = Clock::now();
    const e2e::PeriodicSchedule s{t0, 25.0};
    CHECK(s.due(0) == t0);
    CHECK(near(e2e::ms_between(t0, s.due(1)), 25.0, 1e-6));
    // Due times are multiplied out, so no drift accumulates over a long run.
    CHECK(near(e2e::ms_between(t0, s.due(100000)), 2.5e6, 1e-3));
    CHECK(near(e2e::ms_between(s.due(39), s.due(40)), 25.0, 1e-6));

    // A frame due at 50 ms, sent 3 ms late, whose engine time was 12 ms:
    // 3 ms lateness, 15 ms latency counted from the due time.
    e2e::FrameTiming f{s.due(2), at_ms(t0, 53.0), 12.0};
    CHECK(near(e2e::lateness_ms(f), 3.0, 1e-6));
    CHECK(near(e2e::latency_ms(f), 15.0, 1e-6));
    // Sent on time: latency is the engine time.
    f.sent = f.ready;
    CHECK(near(e2e::lateness_ms(f), 0.0));
    CHECK(near(e2e::latency_ms(f), 12.0));
}

void test_window_rates() {
    const Clock::time_point t0 = Clock::now();
    // Marks every 8 frames: 100 ms, then a 400 ms stall, then 100 ms; CPU
    // 0.4 s per window.
    std::vector<e2e::Mark> marks = {{t0, 0, 0.0},
                                    {at_ms(t0, 100.0), 8, 0.4},
                                    {at_ms(t0, 500.0), 16, 0.8},
                                    {at_ms(t0, 600.0), 24, 1.2}};
    e2e::WindowRates r = e2e::window_rates(marks, 8);
    CHECK(r.fps.size() == 3);
    CHECK(near(r.fps[0], 80.0, 1e-6) && near(r.fps[1], 20.0, 1e-6) && near(r.fps[2], 80.0, 1e-6));
    CHECK(near(e2e::median(r.fps), 80.0, 1e-6));  // the stall does not move the median
    CHECK(near(r.cpu_ms_per_frame[1], 50.0, 1e-9));
    // Windows merge marks until they span min_frames.
    r = e2e::window_rates(marks, 16);
    CHECK(r.fps.size() == 1 && near(r.fps[0], 32.0, 1e-6));
    CHECK(e2e::window_rates({}, 8).fps.empty());
}

/// A tiny folded graph whose output is worked out by hand:
///   x (1x1x2x2) = [[1, 2], [3, 4]]
///   DWConv3 with only the centre tap = 2           -> [[2, 4], [6, 8]]
///   ChannelBias -1                                  -> [[1, 3], [5, 7]]
///   ReLU6                                           -> [[1, 3], [5, 6]]
///   SpaceToDepth(2): channel dy*2+dx holds pixel (dy, dx) -> [1, 3, 5, 6]
///   PWConv1 4->1, weights [1, -1, 0.5, 2], bias 0.25:
///       1 - 3 + 2.5 + 12 + 0.25 = 12.75
/// and a second branch MaxPool2 of the ReLU6 map (= 6) concatenated after it.
void test_ref64_tiny_graph() {
    sky::Rng rng(1);
    sky::nn::Graph g;
    auto dw = std::make_unique<sky::nn::DWConv3>(1, rng);
    dw->weight().fill(0.0f);
    dw->weight().at(0, 0, 1, 1) = 2.0f;
    int n = g.add(std::move(dw), g.input());
    n = g.add(std::make_unique<sky::deploy::ChannelBias>(std::vector<float>{-1.0f}), n);
    const int act = g.add(std::make_unique<sky::nn::Activation>(sky::nn::Act::kReLU6), n);
    n = g.add(std::make_unique<sky::nn::SpaceToDepth>(2), act);
    auto pw = std::make_unique<sky::nn::PWConv1>(4, 1, /*bias=*/true, rng);
    const float w[4] = {1.0f, -1.0f, 0.5f, 2.0f};
    for (int i = 0; i < 4; ++i) pw->weight().at(0, i, 0, 0) = w[i];
    pw->bias()[0] = 0.25f;
    n = g.add(std::move(pw), n);
    const int pool = g.add(std::make_unique<sky::nn::MaxPool2>(), act);
    g.set_output(g.add_concat({n, pool}));
    g.set_training(false);

    sky::Tensor x({1, 1, 2, 2}, std::vector<float>{1.0f, 2.0f, 3.0f, 4.0f});
    const e2e::Tensor64 y = e2e::forward_f64(g, x);
    CHECK((y.shape == sky::Shape{1, 2, 1, 1}));
    CHECK(y.data.size() == 2 && near(y.data[0], 12.75) && near(y.data[1], 6.0));
    // The graph's own fp32 forward agrees, and max_abs_diff sees a change.
    const sky::Tensor y32 = g.forward(x);
    CHECK(near(e2e::max_abs_diff(y32, y), 0.0, 1e-6));
    sky::Tensor off = y32;
    off[1] += 0.5f;
    CHECK(near(e2e::max_abs_diff(off, y), 0.5, 1e-6));
    off[0] = std::nanf("");
    CHECK(std::isinf(e2e::max_abs_diff(off, y)));  // NaN never passes
}

}  // namespace

int main() {
    test_percentile();
    test_split_percentile();
    test_schedule_and_lateness();
    test_window_rates();
    test_ref64_tiny_graph();
    if (g_failures) {
        std::fprintf(stderr, "%d check(s) failed\n", g_failures);
        return 1;
    }
    std::printf("e2ebench_tests: all checks passed\n");
    return 0;
}
