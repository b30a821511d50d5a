// End-to-end benchmark driver for the served SkyNet detector.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--trace-out <path>]
//
// Workloads (README.md explains the choice):
//   dacsdc_fp32    full-width SkyNet-C, fp32, closed loop, 16 frames in flight
//   dacsdc_int8    the same model quantized (default QuantConfig, 9/11 bit)
//   camera_stream  narrow int8 SkyNet-C fed by a fixed-rate open-loop camera
//
// Every run: one cold set-up timed from process start to the first served
// detection, input property checks, reference outputs computed on the
// unbatched path before the timed engine starts, a warm-up, the timed
// phase, and a bitwise check of every served box.  The last stdout line is
// one JSON object: the end-to-end metrics (--trace 0) or the per-layer
// metrics (--trace 1).  A traced run splits its timed phase into untraced
// and traced quarters (the difference is the tracing overhead) and then
// times each layer through its public entry point.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/gemm.hpp"
#include "core/qgemm.hpp"
#include "data/augment.hpp"
#include "data/synth_detection.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "quant/qengine.hpp"
#include "ref64.hpp"
#include "serve/engine.hpp"
#include "skynet/detector.hpp"
#include "stats.hpp"

namespace {

using e2e::Clock;
using e2e::ms_between;
using sky::Tensor;

// Taken during static initialisation, before main(): set-up time is
// charged from here.
const Clock::time_point g_process_start = Clock::now();

constexpr std::uint64_t kModelSeed = 2020;  // weights are fixed; --seed picks frames
constexpr int kFrameH = 360, kFrameW = 640;  // DAC-SDC camera frames
constexpr int kNetH = 160, kNetW = 320;      // SkyNet input (§6.2)
constexpr int kMaxBatch = 8;
constexpr double kMaxDelayMs = 2.0;
// Latency percentiles are the median over this many consecutive parts of
// the timed frames, so one host stall moves one part, not the figure.
constexpr int kLatencyParts = 5;
// The fp32 head map against the float64 plain-loop evaluation:
// docs/KERNELS.md bounds each kernel level at 1e-4 absolute on unit-scale
// values; the network output is allowed that per unit of its own magnitude.
constexpr double kRef64Tolerance = 1e-4;

struct Workload {
    const char* name;
    float width_mult;
    bool int8;
    bool open_loop;
    int in_flight;         ///< closed loop: frames kept in the engine
    double rate_hz;        ///< open loop: camera frame rate
    int pool_frames;       ///< distinct seeded frames, served round-robin
    int warmup_frames;     ///< served before the timed phase, not timed
    int ref64_frames;      ///< frames checked against the float64 evaluation
    int ref_exec_frames;   ///< frames checked kAuto == kReference (int8)
    int probe_reps;        ///< repetitions per layer probe (traced runs)
};

constexpr Workload kWorkloads[] = {
    {"dacsdc_fp32", 1.0f, false, false, 16, 0.0, 8, 32, 1, 0, 3},
    {"dacsdc_int8", 1.0f, true, false, 16, 0.0, 8, 32, 1, 1, 3},
    {"camera_stream", 0.25f, true, true, 0, 20.0, 16, 20, 2, 2, 20},
};

struct Metric {
    std::string name;
    std::string unit;
    double value;
};

double cpu_seconds() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Minor page faults of the process so far: each is a fresh page touched,
/// so a steady forward pass that reuses its buffers adds none.
double minor_faults() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_minflt);
}

double since_ms(Clock::time_point t0) { return ms_between(t0, Clock::now()); }

bool same_box(const sky::detect::BBox& a, const sky::detect::BBox& b) {
    return std::memcmp(&a, &b, sizeof(a)) == 0;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.size()) * sizeof(float)) ==
               0;
}

sky::SkyNetConfig model_config(const Workload& w) {
    return {sky::SkyNetVariant::kC, sky::nn::Act::kReLU6, 2, w.width_mult};
}

/// The deployed model of a workload: built from the fixed weight seed, BN
/// folded and, for int8 workloads, quantized with the default scheme.
sky::Detector make_detector(const Workload& w, bool quantize) {
    sky::Rng rng(kModelSeed);
    sky::Detector det(model_config(w), rng);
    det.fold_bn();
    if (quantize) (void)det.quantize(sky::quant::QuantConfig{});
    return det;
}

Tensor stack(const std::vector<Tensor>& items, int n) {
    const sky::Shape s = items.at(0).shape();
    Tensor out({n, s.c, s.h, s.w});
    for (int i = 0; i < n; ++i) {
        const Tensor& src = items.at(static_cast<std::size_t>(i) % items.size());
        std::memcpy(out.plane(i, 0), src.data(),
                    static_cast<std::size_t>(s.per_item()) * sizeof(float));
    }
    return out;
}

// --- Cold set-up --------------------------------------------------------

struct Setup {
    double build_ms = 0.0, fold_bn_ms = 0.0, quantize_ms = 0.0;
    double engine_start_ms = 0.0, first_detect_ms = 0.0;
    double setup_s = 0.0;
};

sky::serve::ServeConfig serve_config() {
    sky::serve::ServeConfig c;
    c.max_batch = kMaxBatch;
    c.max_delay_ms = kMaxDelayMs;
    c.target_h = kNetH;
    c.target_w = kNetW;
    return c;
}

// --- Served phase -------------------------------------------------------

struct Served {
    std::size_t frame = 0;  ///< pool index
    e2e::FrameTiming timing;
    std::optional<sky::serve::DetectResult> result;  ///< empty: the request failed
};

struct PhaseResult {
    std::vector<Served> frames;  ///< every frame sent, warm-up included
    std::size_t timed_begin = 0;  ///< first frame sent inside the timed phase
    std::size_t timed_end = 0;    ///< one past the last one
    std::vector<e2e::Mark> marks;       ///< progress samples of the timed phase
    std::vector<e2e::Mark> send_marks;  ///< open loop: samples at each send
    std::int64_t batches = 0;
    double warm_peak_rss_mb = 0.0;  ///< peak RSS when the timed phase began
};

std::optional<sky::serve::DetectResult> collect(std::future<sky::serve::DetectResult>& f) {
    try {
        return f.get();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "e2ebench: request failed: %s\n", e.what());
        return std::nullopt;
    }
}

/// Closed loop: keep `in_flight` frames in the engine and replace each
/// completion at once.  A replacement is "ready" when the frame it replaces
/// completed, so lateness is how long the generator took to react.
PhaseResult run_closed_loop(sky::Detector& det, const Workload& w,
                            const std::vector<Tensor>& pool, double seconds) {
    PhaseResult out;
    sky::serve::Engine engine(det, serve_config());
    engine.start();
    std::deque<std::pair<std::size_t, std::future<sky::serve::DetectResult>>> pending;
    Tensor next = pool[0];
    auto send = [&](Clock::time_point ready) {
        Served s;
        s.frame = out.frames.size() % pool.size();
        s.timing.ready = ready;
        s.timing.sent = Clock::now();
        pending.emplace_back(out.frames.size(), engine.submit(std::move(next)));
        out.frames.push_back(std::move(s));
        next = pool[out.frames.size() % pool.size()];  // fetch the next frame early
    };
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < w.in_flight; ++i) send(t0);

    std::int64_t completed = 0, completed_at_start = 0;
    bool timing = false, stopping = false;
    while (!pending.empty()) {
        auto [index, fut] = std::move(pending.front());
        pending.pop_front();
        Served& s = out.frames[index];
        s.result = collect(fut);
        const Clock::time_point now = Clock::now();
        ++completed;
        if (s.result) s.timing.engine_total_ms = s.result->total_ms;
        if (!timing && completed >= w.warmup_frames) {
            timing = true;
            completed_at_start = completed;
            out.timed_begin = out.frames.size();
            out.warm_peak_rss_mb = peak_rss_mb();
            out.marks.push_back({now, 0, cpu_seconds()});
        } else if (timing && !stopping) {
            out.marks.push_back({now, completed - completed_at_start, cpu_seconds()});
            if (ms_between(out.marks.front().t, now) >= seconds * 1e3) {
                stopping = true;
                out.timed_end = out.frames.size();
            }
        }
        if (!stopping) {
            const auto total = std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double, std::milli>(s.timing.engine_total_ms));
            send(std::min(s.timing.sent + total, now));
        }
    }
    engine.shutdown();
    out.batches = static_cast<std::int64_t>(engine.batches());
    return out;
}

/// Open loop: a camera sends frame i at start + i / rate whether or not the
/// engine has caught up.  The frame count is fixed by the duration, so every
/// run attempts the same number of frames.
PhaseResult run_open_loop(sky::Detector& det, const Workload& w,
                          const std::vector<Tensor>& pool, double seconds) {
    PhaseResult out;
    sky::serve::Engine engine(det, serve_config());
    engine.start();
    const auto timed = static_cast<std::int64_t>(std::llround(seconds * w.rate_hz));
    const std::int64_t total = w.warmup_frames + timed;
    std::vector<std::future<sky::serve::DetectResult>> futures;
    futures.reserve(static_cast<std::size_t>(total));
    // A record vector that grew while serving would reallocate between the
    // camera's frame copies and could make the heap keep one more raw frame
    // (2.6 MB) resident in some runs and not in others.
    out.frames.reserve(static_cast<std::size_t>(total));
    const e2e::PeriodicSchedule schedule{Clock::now() + std::chrono::milliseconds(20),
                                         1e3 / w.rate_hz};
    Tensor next = pool[0];
    for (std::int64_t i = 0; i < total; ++i) {
        Served s;
        s.frame = static_cast<std::size_t>(i) % pool.size();
        s.timing.ready = schedule.due(i);
        if (i == w.warmup_frames) out.warm_peak_rss_mb = peak_rss_mb();
        std::this_thread::sleep_until(s.timing.ready);
        s.timing.sent = Clock::now();
        futures.push_back(engine.submit(std::move(next)));
        if (i >= w.warmup_frames)
            out.send_marks.push_back({s.timing.sent, i - w.warmup_frames, cpu_seconds()});
        out.frames.push_back(std::move(s));
        next = pool[static_cast<std::size_t>(i + 1) % pool.size()];
    }
    for (std::size_t i = 0; i < futures.size(); ++i) {
        Served& s = out.frames[i];
        s.result = collect(futures[i]);
        if (s.result) s.timing.engine_total_ms = s.result->total_ms;
    }
    engine.shutdown();
    out.batches = static_cast<std::int64_t>(engine.batches());
    out.timed_begin = static_cast<std::size_t>(w.warmup_frames);
    out.timed_end = out.frames.size();
    // Throughput counts completions: frame i completed at sent + total.
    std::vector<Clock::time_point> done;
    for (std::size_t i = out.timed_begin; i < out.timed_end; ++i) {
        const e2e::FrameTiming& t = out.frames[i].timing;
        done.push_back(t.sent + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double, std::milli>(
                                        t.engine_total_ms)));
    }
    std::sort(done.begin(), done.end());
    out.marks.push_back({schedule.due(w.warmup_frames), 0, 0.0});
    for (std::size_t k = 0; k < done.size(); ++k)
        out.marks.push_back({done[k], static_cast<std::int64_t>(k + 1), 0.0});
    return out;
}

PhaseResult run_phase(sky::Detector& det, const Workload& w, const std::vector<Tensor>& pool,
                      double seconds) {
    return w.open_loop ? run_open_loop(det, w, pool, seconds)
                       : run_closed_loop(det, w, pool, seconds);
}

struct PhaseSummary {
    double fps = 0.0;
    double cpu_ms_per_frame = 0.0;
    double p50 = 0.0, p90 = 0.0, p99 = 0.0;
    double max_late_ms = 0.0;
    std::size_t samples = 0;
    // Stage breakdown from serve::DetectResult, over the timed frames.
    double queue_p50 = 0.0, preprocess_p50 = 0.0, batch_wait_p50 = 0.0;
    double infer_p50 = 0.0, postprocess_p50 = 0.0, total_p99 = 0.0;
    double batch_size_mean = 0.0;
};

PhaseSummary summarize(const PhaseResult& r) {
    PhaseSummary out;
    std::vector<double> lat, queue, pre, wait, infer, post, total;
    for (std::size_t i = r.timed_begin; i < r.timed_end; ++i) {
        const Served& s = r.frames[i];
        out.max_late_ms = std::max(out.max_late_ms, e2e::lateness_ms(s.timing));
        if (!s.result) continue;
        lat.push_back(e2e::latency_ms(s.timing));
        queue.push_back(s.result->queue_ms);
        pre.push_back(s.result->preprocess_ms);
        wait.push_back(s.result->batch_wait_ms);
        infer.push_back(s.result->infer_ms);
        post.push_back(s.result->postprocess_ms);
        total.push_back(s.result->total_ms);
    }
    out.samples = lat.size();
    out.p50 = e2e::split_percentile(lat, 0.50, kLatencyParts);
    out.p90 = e2e::split_percentile(lat, 0.90, kLatencyParts);
    out.p99 = e2e::percentile(lat, 0.99);
    out.queue_p50 = e2e::median(queue);
    out.preprocess_p50 = e2e::median(pre);
    out.batch_wait_p50 = e2e::median(wait);
    out.infer_p50 = e2e::median(infer);
    out.postprocess_p50 = e2e::median(post);
    out.total_p99 = e2e::percentile(total, 0.99);
    // Mean batch size per batch: frames weight each batch by its size, so
    // the per-batch mean is frames / sum(1 / size).
    double inv = 0.0;
    for (std::size_t i = r.timed_begin; i < r.timed_end; ++i)
        if (r.frames[i].result) inv += 1.0 / r.frames[i].result->batch_size;
    out.batch_size_mean = inv > 0.0 ? static_cast<double>(lat.size()) / inv : 0.0;
    const e2e::WindowRates rates = e2e::window_rates(r.marks, kMaxBatch);
    out.fps = e2e::median(rates.fps);
    out.cpu_ms_per_frame = e2e::median(
        r.send_marks.empty() ? rates.cpu_ms_per_frame
                             : e2e::window_rates(r.send_marks, kMaxBatch).cpu_ms_per_frame);
    return out;
}

// --- Inputs and reference outputs ---------------------------------------

/// Seeded DAC-SDC scenes: 360x640 frames with the Fig. 6 small-object
/// statistics and up to two look-alike distractors.
std::vector<Tensor> render_frames(std::uint64_t seed, int n) {
    sky::data::DetectionDataset::Config cfg;
    cfg.height = kFrameH;
    cfg.width = kFrameW;
    cfg.seed = seed;
    const sky::data::DetectionDataset dataset(cfg);
    sky::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
    std::vector<Tensor> frames;
    for (int i = 0; i < n; ++i) frames.push_back(dataset.sample(rng).image);
    return frames;
}

struct Checks {
    std::vector<bool> frame_ok;  ///< per pool frame: every reference check passed
    std::vector<sky::detect::BBox> expected;  ///< unbatched Detector::detect boxes
    bool properties_ok = true;
    double worst_ref64 = 0.0, worst_int8_dev = 0.0;
};

void fail(Checks& c, std::size_t frame, const std::string& why) {
    std::fprintf(stderr, "e2ebench: CHECK FAILED on frame %zu: %s\n", frame, why.c_str());
    c.frame_ok[frame] = false;
}

/// Every reference the served results are compared against, computed on the
/// unbatched path of an identically built detector.  Runs in its own process
/// (--check-out), so its memory never shows in the served run's peak RSS.
Checks reference_checks(const Workload& w, const std::vector<Tensor>& pool) {
    Checks c;
    c.frame_ok.assign(pool.size(), true);
    const sky::quant::QuantConfig qcfg{};
    sky::Detector det = make_detector(w, w.int8);
    // The fp32 detector whose head map is checked against float64: the
    // served one, or for int8 an identically seeded folded twin.
    std::optional<sky::Detector> twin;
    if (w.int8) twin.emplace(make_detector(w, false));
    sky::Detector& f32 = w.int8 ? *twin : det;
    std::optional<sky::quant::QEngine> reference;
    if (w.int8)
        reference.emplace(f32.net(), sky::quant::QuantConfig{}.with_execution(
                                          sky::quant::QExecution::kReference));
    const double bound = det.certified_error_bound();
    if (w.int8 && !(bound > 0.0)) {
        std::fprintf(stderr, "e2ebench: no certified error bound (%g)\n", bound);
        c.properties_ok = false;
    }

    for (std::size_t i = 0; i < pool.size(); ++i) {
        const Tensor& frame = pool[i];
        const Tensor x = sky::data::resize_area(frame, kNetH, kNetW);
        // Inputs: inside the declared range (else QEngine would silently
        // take the whole-pass reference fallback) and area resize keeps the
        // image mean.
        for (const Tensor* t : {&frame, &x})
            if (!(t->min() >= qcfg.input_lo && t->max() <= qcfg.input_hi)) {
                fail(c, i, "pixels outside the declared input range");
                c.properties_ok = false;
            }
        const double mean_diff = std::abs(x.mean() - frame.mean());
        if (!(mean_diff <= 1e-6)) {
            fail(c, i, "resize_area moved the image mean by " + std::to_string(mean_diff));
            c.properties_ok = false;
        }
        c.expected.push_back(det.detect(x));

        const Tensor served_map = det.forward(x);
        if (w.int8) {
            const Tensor fp32_map = f32.forward(x);
            double dev = 0.0;
            for (std::int64_t k = 0; k < served_map.size(); ++k)
                dev = std::max(dev, static_cast<double>(std::abs(served_map[k] - fp32_map[k])));
            c.worst_int8_dev = std::max(c.worst_int8_dev, dev);
            if (!(dev <= bound))
                fail(c, i, "int8 deviates from fp32 by " + std::to_string(dev) +
                               " > certified " + std::to_string(bound));
            if (static_cast<int>(i) < w.ref_exec_frames &&
                !bitwise_equal(served_map, reference->run(x)))
                fail(c, i, "kAuto differs from kReference");
        }
        if (static_cast<int>(i) < w.ref64_frames) {
            const Tensor fp32_map = f32.forward(x);
            const e2e::Tensor64 ref = e2e::forward_f64(f32.net(), x);
            double scale = 1.0;
            for (double v : ref.data) scale = std::max(scale, std::abs(v));
            const double err = e2e::max_abs_diff(fp32_map, ref);
            c.worst_ref64 = std::max(c.worst_ref64, err / scale);
            if (!(err <= kRef64Tolerance * scale))
                fail(c, i, "fp32 head map off the float64 evaluation by " +
                               std::to_string(err) + " (scale " + std::to_string(scale) + ")");
        }
    }
    return c;
}

constexpr const char* kChecksMagic = "e2ebench-checks-v1";

void write_checks(const std::string& path, const Workload& w, std::uint64_t seed,
                  const Checks& c) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) throw std::runtime_error("cannot write " + path);
    std::fprintf(f, "%s %s %llu %zu %d %a %a\n", kChecksMagic, w.name,
                 static_cast<unsigned long long>(seed), c.expected.size(),
                 c.properties_ok ? 1 : 0, c.worst_int8_dev, c.worst_ref64);
    for (std::size_t i = 0; i < c.expected.size(); ++i) {
        const sky::detect::BBox& b = c.expected[i];
        std::fprintf(f, "%d %a %a %a %a\n", c.frame_ok[i] ? 1 : 0, b.cx, b.cy, b.w, b.h);
    }
    if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

Checks read_checks(const std::string& path, const Workload& w, std::uint64_t seed) {
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (!f) throw std::runtime_error("cannot read " + path);
    Checks c;
    char magic[32] = {}, name[32] = {};
    unsigned long long file_seed = 0;
    std::size_t n = 0;
    int props = 0;
    bool ok = std::fscanf(f, "%31s %31s %llu %zu %d %la %la", magic, name, &file_seed, &n,
                          &props, &c.worst_int8_dev, &c.worst_ref64) == 7 &&
              std::string(magic) == kChecksMagic && std::string(name) == w.name &&
              file_seed == seed && n == static_cast<std::size_t>(w.pool_frames);
    c.properties_ok = props == 1;
    for (std::size_t i = 0; ok && i < n; ++i) {
        int frame_ok = 0;
        sky::detect::BBox b;
        ok = std::fscanf(f, "%d %a %a %a %a", &frame_ok, &b.cx, &b.cy, &b.w, &b.h) == 5;
        c.frame_ok.push_back(frame_ok == 1);
        c.expected.push_back(b);
    }
    std::fclose(f);
    if (!ok) throw std::runtime_error(path + " does not hold the checks of this run");
    return c;
}

// --- Layer probes (traced runs) ------------------------------------------

template <typename F>
double time_ms(const char* span, F&& f) {
    sky::obs::Span s(span, "e2ebench");
    const Clock::time_point t0 = Clock::now();
    f();
    return since_ms(t0);
}

std::vector<Metric> probe_layers(const Workload& w, sky::Detector& served,
                                 const std::vector<Tensor>& pool, Setup& setup) {
    std::vector<Metric> m;
    const int batch = w.open_loop ? 1 : kMaxBatch;
    const int reps = w.probe_reps;
    std::vector<Tensor> inputs;
    std::vector<double> resize_ms;
    for (const Tensor& f : pool)
        resize_ms.push_back(time_ms("e2e/data.resize_area", [&] {
            inputs.push_back(sky::data::resize_area(f, kNetH, kNetW));
        }));
    m.push_back({"data.resize_area_ms", "ms", e2e::median(resize_ms)});
    const Tensor x = stack(inputs, batch);

    // nn: the fp32 graph, timed bare and then per op kind under the profiler.
    std::optional<sky::Detector> twin32;
    if (w.int8) twin32.emplace(make_detector(w, false));
    sky::Detector& f32 = w.int8 ? *twin32 : served;
    (void)f32.forward(x);
    double bare_ms = 0.0;
    const double nn_faults0 = minor_faults();
    for (int r = 0; r < reps; ++r)
        bare_ms += time_ms("e2e/nn.forward", [&] { (void)f32.forward(x); });
    const double nn_faults = minor_faults() - nn_faults0;
    std::vector<sky::obs::LayerProfile> layers;
    {
        sky::obs::GraphProfiler profiler(f32.net());
        for (int r = 0; r < reps; ++r)
            (void)time_ms("e2e/nn.forward_profiled", [&] { (void)f32.forward(x); });
        layers = profiler.profiles();
    }
    const double frames = static_cast<double>(reps) * batch;
    std::map<std::string, double> kind_ms, kind_flop;
    const sky::obs::LayerProfile* widest = nullptr;
    for (const sky::obs::LayerProfile& l : layers) {
        kind_ms[l.kind] += l.fwd_ms;
        kind_flop[l.kind] += 2.0 * static_cast<double>(l.macs) * l.fwd_calls;
        if (l.kind == "pwconv" && (!widest || l.macs > widest->macs)) widest = &l;
    }
    auto per_frame = [&](const char* kind) { return kind_ms[kind] / frames; };
    auto gflops = [&](const char* kind) {
        return kind_ms[kind] > 0.0 ? kind_flop[kind] / (kind_ms[kind] * 1e6) : 0.0;
    };
    m.push_back({"nn.forward_ms_per_frame", "ms", bare_ms / frames});
    m.push_back({"nn.page_faults_per_frame", "count", nn_faults / frames});
    m.push_back({"nn.dwconv_ms", "ms", per_frame("dwconv")});
    m.push_back({"nn.pwconv_ms", "ms", per_frame("pwconv")});
    m.push_back({"nn.bias_ms", "ms", per_frame("bias")});
    m.push_back({"nn.activation_ms", "ms", per_frame("act")});
    m.push_back({"nn.pool_ms", "ms", per_frame("pool")});
    m.push_back({"nn.identity_ms", "ms", per_frame("identity")});
    // The concat join is a graph node, not a module, so the profiler does
    // not see it: time Tensor::concat_channels on the inputs the last pass
    // gave each concat node.
    const sky::nn::Graph& graph = f32.net();
    double concat_ms = 0.0;
    for (std::size_t i = 0; i < graph.node_count(); ++i) {
        if (graph.node_kind(i) != sky::nn::Graph::NodeKind::kConcat) continue;
        std::vector<const Tensor*> parts;
        for (const int in : graph.node_inputs(i)) parts.push_back(&graph.node_output(in));
        for (int r = 0; r < reps; ++r)
            concat_ms += time_ms("e2e/nn.concat", [&] { (void)Tensor::concat_channels(parts); });
    }
    m.push_back({"nn.reorder_concat_ms", "ms", per_frame("reorder") + concat_ms / frames});
    m.push_back({"nn.pwconv_gflops", "GFLOP/s", gflops("pwconv")});
    m.push_back({"nn.dwconv_gflops", "GFLOP/s", gflops("dwconv")});

    // quant: the int8 engine on the same batch.
    std::optional<sky::Detector> twin8;
    if (!w.int8) {
        sky::Rng rng(kModelSeed);
        twin8.emplace(model_config(w), rng);
        twin8->fold_bn();
        setup.quantize_ms = time_ms("e2e/quant.quantize", [&] {
            (void)twin8->quantize(sky::quant::QuantConfig{});
        });
    }
    sky::Detector& q8 = w.int8 ? served : *twin8;
    (void)q8.forward(x);
    const std::int64_t alloc0 = q8.qengine()->alloc_events();
    double q_ms = 0.0;
    const double q_faults0 = minor_faults();
    for (int r = 0; r < reps; ++r)
        q_ms += time_ms("e2e/quant.run", [&] { (void)q8.forward(x); });
    const double q_faults = minor_faults() - q_faults0;
    const sky::quant::QuantReport& qr = q8.qengine()->report();
    m.push_back({"quant.run_ms_per_frame", "ms", q_ms / frames});
    m.push_back({"quant.page_faults_per_frame", "count", q_faults / frames});
    m.push_back({"quant.qgemm_layers", "count", static_cast<double>(qr.qgemm_layers)});
    m.push_back({"quant.ref_layers", "count", static_cast<double>(qr.ref_layers)});
    m.push_back({"quant.fp32_layers", "count", static_cast<double>(qr.fp32_layers)});
    m.push_back({"quant.activation_arena_bytes", "bytes",
                 static_cast<double>(q8.activation_plan_bytes())});
    m.push_back({"quant.steady_alloc_events", "count",
                 static_cast<double>(q8.qengine()->alloc_events() - alloc0)});

    // core: both GEMM engines at the model's largest pointwise shape.
    if (!widest) throw std::runtime_error("probe: the model has no pwconv layer");
    const int M = widest->out.c, K = widest->in.c, N = widest->in.h * widest->in.w;
    const double flop = 2.0 * M * N * K;
    sky::Rng rng(7);
    std::vector<float> a(static_cast<std::size_t>(M) * K), b(static_cast<std::size_t>(K) * N);
    for (float& v : a) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (float& v : b) v = static_cast<float>(rng.uniform(0.0, 1.0));
    sky::core::PackedA pa;
    sky::core::PackedB pb;
    sky::core::pack_a(M, K, a.data(), false, pa);
    sky::core::pack_b(K, N, b.data(), false, pb);
    std::vector<float> c(static_cast<std::size_t>(M) * N);
    std::vector<std::int32_t> qa(a.size());
    std::vector<std::uint8_t> qb(b.size());
    for (std::size_t i = 0; i < qa.size(); ++i) qa[i] = static_cast<std::int32_t>(a[i] * 1023.0f);
    for (std::size_t i = 0; i < qb.size(); ++i) qb[i] = static_cast<std::uint8_t>(b[i] * 255.0f);
    sky::core::QPackedA qpa;
    sky::core::QPackedB qpb;
    sky::core::qpack_a_wide(M, K, qa.data(), qpa);
    sky::core::qpack_b(K, N, qb.data(), qpb);
    std::vector<std::int32_t> qc(static_cast<std::size_t>(M) * N);
    const int gemm_reps = std::clamp(static_cast<int>(2e9 / flop), 5, 400);
    std::vector<double> s_ms, q_gemm_ms;
    for (int r = 0; r <= gemm_reps; ++r) {  // rep 0 warms up
        std::fill(c.begin(), c.end(), 0.0f);
        std::fill(qc.begin(), qc.end(), 0);
        const double t_s = time_ms("e2e/core.sgemm", [&] {
            sky::core::sgemm_packed(pa, pb, c.data());
        });
        const double t_q = time_ms("e2e/core.qgemm", [&] {
            sky::core::qgemm_packed(qpa, qpb, qc.data());
        });
        if (r > 0) {
            s_ms.push_back(t_s);
            q_gemm_ms.push_back(t_q);
        }
    }
    m.push_back({"core.sgemm_gflops", "GFLOP/s", flop / (e2e::median(s_ms) * 1e6)});
    m.push_back({"core.qgemm_giops", "GOP/s", flop / (e2e::median(q_gemm_ms) * 1e6)});

    // detect: decoding one served batch's head map.
    const Tensor map = served.forward(x);
    std::vector<double> dec_ms;
    for (int r = 0; r < std::max(reps, 10); ++r)
        dec_ms.push_back(time_ms("e2e/detect.decode", [&] { (void)served.head().decode(map); }));
    m.push_back({"detect.decode_ms_per_batch", "ms", e2e::median(dec_ms)});
    return m;
}

// --- Output ---------------------------------------------------------------

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
    for (const Metric& m : metrics)
        std::fprintf(stderr, "  %-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    std::fprintf(stderr, "  attempted %lld frames, failed %lld\n",
                 static_cast<long long>(attempted), static_cast<long long>(failed));
    std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g",
                      std::isfinite(metrics[i].value) ? metrics[i].value : -1.0);
        json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
                ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

struct Args {
    const Workload* workload = nullptr;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string trace_out;
    std::string check_out;  ///< check mode: write the reference checks here
    std::string checks;     ///< serve mode: the check mode's output
};

Args parse_args(int argc, char** argv) {
    Args a;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
        const std::string val = argv[++i];
        if (key == "--workload") {
            for (const Workload& w : kWorkloads)
                if (val == w.name) a.workload = &w;
            if (!a.workload) throw std::invalid_argument("unknown workload " + val);
        } else if (key == "--seed") {
            a.seed = std::stoull(val);
            have_seed = true;
        } else if (key == "--seconds") {
            a.seconds = std::stod(val);
        } else if (key == "--trace") {
            if (val != "0" && val != "1") throw std::invalid_argument("--trace takes 0 or 1");
            a.trace = val == "1";
        } else if (key == "--trace-out") {
            a.trace_out = val;
        } else if (key == "--check-out") {
            a.check_out = val;
        } else if (key == "--checks") {
            a.checks = val;
        } else {
            throw std::invalid_argument("unknown argument " + key);
        }
    }
    const bool check_mode = !a.check_out.empty();
    if (!a.workload || !have_seed ||
        (!check_mode && (a.checks.empty() || !(a.seconds > 0.0 && a.seconds <= 120.0))))
        throw std::invalid_argument(
            "usage: e2ebench --workload <dacsdc_fp32|dacsdc_int8|camera_stream> --seed <n>\n"
            "         (--check-out <path> |\n"
            "          --checks <path> --seconds <0..120> --trace <0|1> [--trace-out <path>])");
    return a;
}

struct Verdict {
    std::int64_t attempted = 0, failed = 0;
};

/// Every served frame must carry the box its pool frame got on the
/// unbatched path, and that pool frame must have passed every check.
void verify_served(const PhaseResult& r, const Checks& c, Verdict& v) {
    for (const Served& s : r.frames) {
        ++v.attempted;
        if (!s.result || !c.frame_ok[s.frame] || !same_box(s.result->box, c.expected[s.frame]))
            ++v.failed;
    }
}

int run_checks(const Args& args) {
    const Workload& w = *args.workload;
    const Checks c = reference_checks(w, render_frames(args.seed, w.pool_frames));
    write_checks(args.check_out, w, args.seed, c);
    std::fprintf(stderr,
                 "e2ebench %s seed %llu: checks %s; worst |int8 - fp32| %.4g, float64 "
                 "relative error %.3g\n",
                 w.name, static_cast<unsigned long long>(args.seed),
                 c.properties_ok && std::find(c.frame_ok.begin(), c.frame_ok.end(), false) ==
                                        c.frame_ok.end()
                     ? "passed"
                     : "FAILED",
                 c.worst_int8_dev, c.worst_ref64);
    return 0;
}

int run(const Args& args) {
    const Workload& w = *args.workload;
    sky::obs::TraceSession session;
    std::optional<sky::obs::TraceGuard> tracing;
    if (args.trace) tracing.emplace(session);

    // Cold set-up: build + verify, fold, quantize, start an engine and serve
    // the first frame.  Rendering that frame is the benchmark's own input
    // generation, and its cost depends on the seed's scene: it is left out.
    Setup setup;
    Clock::time_point t = Clock::now();
    std::vector<Tensor> pool = render_frames(args.seed, 1);
    const double render_ms = since_ms(t);
    t = Clock::now();
    sky::Rng model_rng(kModelSeed);
    sky::Detector det(model_config(w), model_rng);
    setup.build_ms = since_ms(t);
    setup.fold_bn_ms = time_ms("e2e/setup.fold_bn", [&] { (void)det.fold_bn(); });
    if (w.int8)
        setup.quantize_ms = time_ms("e2e/setup.quantize", [&] {
            (void)det.quantize(sky::quant::QuantConfig{});
        });
    std::optional<sky::serve::DetectResult> first;
    {
        t = Clock::now();
        sky::serve::Engine engine(det, serve_config());
        engine.start();
        setup.engine_start_ms = since_ms(t);
        t = Clock::now();
        auto fut = engine.submit(pool[0]);
        first = collect(fut);
        setup.first_detect_ms = since_ms(t);
        setup.setup_s = (ms_between(g_process_start, Clock::now()) - render_ms) / 1e3;
    }
    const double rss_setup = peak_rss_mb();

    pool = render_frames(args.seed, w.pool_frames);
    double pool_mb = 0.0;
    for (const Tensor& f : pool)
        pool_mb += static_cast<double>(f.size()) * sizeof(float) / (1 << 20);
    Checks checks = read_checks(args.checks, w, args.seed);
    if (w.int8 && det.qengine()->execution() != sky::quant::QExecution::kAuto) {
        std::fprintf(stderr, "e2ebench: the int8 engine does not run kAuto\n");
        checks.properties_ok = false;
    }

    Verdict verdict;
    verdict.attempted = 1;
    if (!first || !checks.frame_ok[0] || !same_box(first->box, checks.expected[0]))
        verdict.failed = 1;

    std::vector<Metric> metrics;
    if (!args.trace) {
        tracing.reset();
        const PhaseResult r = run_phase(det, w, pool, args.seconds);
        const double rss_run = peak_rss_mb();
        verify_served(r, checks, verdict);
        const PhaseSummary s = summarize(r);
        std::fprintf(stderr,
                     "e2ebench %s seed %llu: %zu timed frames in %lld batches; peak RSS "
                     "%.1f MB after set-up, %.1f MB after the warm-up, %.1f MB over the "
                     "whole run (frame pool %.1f MB); latency p99 %.3f ms\n",
                     w.name, static_cast<unsigned long long>(args.seed), s.samples,
                     static_cast<long long>(r.batches), rss_setup, r.warm_peak_rss_mb,
                     rss_run, pool_mb, s.p99);
        metrics = {
            {"fps", "1/s", s.fps},
            {"latency_p50_ms", "ms", s.p50},
            {"latency_p90_ms", "ms", s.p90},
            {"cpu_ms_per_frame", "ms", s.cpu_ms_per_frame},
            {"peak_rss_mb", "MB", r.warm_peak_rss_mb - pool_mb},
            {"setup_s", "s", setup.setup_s},
        };
    } else {
        // Untraced and traced quarters in the order plain, traced, traced,
        // plain: a host drift that is linear over the run cancels out of the
        // difference, which is what tracing costs.  The per-layer serve
        // figures come from the first untraced quarter.
        std::vector<PhaseSummary> plain, traced;
        for (const bool on : {false, true, true, false}) {
            if (on) tracing.emplace(session);
            else tracing.reset();
            const PhaseResult r = run_phase(det, w, pool, args.seconds / 4);
            verify_served(r, checks, verdict);
            (on ? traced : plain).push_back(summarize(r));
        }
        tracing.emplace(session);  // the layer probes record their spans
        const PhaseSummary& a = plain[0];
        const double fps_a = plain[0].fps + plain[1].fps, fps_b = traced[0].fps + traced[1].fps;
        const double p50_a = plain[0].p50 + plain[1].p50, p50_b = traced[0].p50 + traced[1].p50;
        metrics = {
            {"serve.queue_ms_p50", "ms", a.queue_p50},
            {"serve.preprocess_ms_p50", "ms", a.preprocess_p50},
            {"serve.batch_wait_ms_p50", "ms", a.batch_wait_p50},
            {"serve.infer_ms_per_batch_p50", "ms", a.infer_p50},
            {"serve.postprocess_ms_p50", "ms", a.postprocess_p50},
            {"serve.total_ms_p99", "ms", a.total_p99},
            {"serve.batch_size_mean", "count", a.batch_size_mean},
            {"loadgen.max_late_ms", "ms", std::max(plain[0].max_late_ms, plain[1].max_late_ms)},
            {"trace.overhead_fps_pct", "%", 100.0 * (fps_a - fps_b) / fps_a},
            {"trace.overhead_p50_pct", "%", 100.0 * (p50_b - p50_a) / p50_a},
        };
        std::vector<Metric> layers = probe_layers(w, det, pool, setup);
        metrics.insert(metrics.end(), layers.begin(), layers.end());
        metrics.push_back({"setup.build_ms", "ms", setup.build_ms});
        metrics.push_back({"setup.fold_bn_ms", "ms", setup.fold_bn_ms});
        metrics.push_back({"setup.quantize_ms", "ms", setup.quantize_ms});
        metrics.push_back({"setup.engine_start_ms", "ms", setup.engine_start_ms});
        metrics.push_back({"setup.first_detect_ms", "ms", setup.first_detect_ms});
        tracing.reset();
        if (!args.trace_out.empty()) {
            if (!session.save(args.trace_out))
                throw std::runtime_error("cannot write the trace to " + args.trace_out);
            std::fprintf(stderr, "e2ebench: %zu spans written to %s\n", session.size(),
                         args.trace_out.c_str());
        }
    }
    const bool correct = checks.properties_ok && verdict.failed == 0;
    print_result(correct, verdict.attempted, verdict.failed, metrics);
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        const Args args = parse_args(argc, argv);
        return args.check_out.empty() ? run(args) : run_checks(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "e2ebench: %s\n", e.what());
        return 2;
    }
}
