// Measurement accounting of the end-to-end benchmark: percentiles, the
// periodic camera schedule, generator lateness and per-window throughput.
// Pure functions over recorded timestamps, so tests/test_pieces.cpp can pin
// them without running the detector.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

/// q-quantile (q in [0, 1]) of `v` by linear interpolation between closest
/// ranks (the "type 7" rule of numpy's default).  0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> v, double q);
[[nodiscard]] double median(std::vector<double> v);
/// Median over `parts` consecutive, nearly equal slices of `v` (in its
/// given order) of each slice's q-quantile.  A stall that hits one slice
/// moves that slice only.  Falls back to percentile(v, q) when a slice
/// would hold fewer than 40 samples.
[[nodiscard]] double split_percentile(const std::vector<double>& v, double q, int parts);

[[nodiscard]] double ms_between(Clock::time_point a, Clock::time_point b);

/// Fixed-rate open-loop arrivals: frame i is due at start + i * period,
/// whatever happened to earlier frames (a camera does not wait for the
/// detector).
struct PeriodicSchedule {
    Clock::time_point start;
    double period_ms = 0.0;

    [[nodiscard]] Clock::time_point due(std::int64_t i) const;
};

/// One served frame as the load generator saw it.  `ready` is the moment
/// the generator meant to send it: the schedule's due time in an open loop,
/// or the completion of the frame it replaces in a closed loop.
struct FrameTiming {
    Clock::time_point ready;
    Clock::time_point sent;
    double engine_total_ms = 0.0;  ///< serve::DetectResult::total_ms
};

/// How late the generator sent the frame (>= 0 when it ran on time or late;
/// negative only if it sent early, which the generators never do).
[[nodiscard]] double lateness_ms(const FrameTiming& f);
/// Latency charged to the frame: from when it was ready to be sent to its
/// result, so a generator stall counts against every frame it delays.
[[nodiscard]] double latency_ms(const FrameTiming& f);

/// Progress sample taken by the load generator: wall time, frames counted
/// so far, process CPU seconds so far.
struct Mark {
    Clock::time_point t;
    std::int64_t frames = 0;
    double cpu_s = 0.0;
};

/// Rates over consecutive windows of at least `min_frames` frames between
/// marks.  Medians over windows shrug off host stalls shorter than half the
/// run, which a single whole-run mean would absorb.
struct WindowRates {
    std::vector<double> fps;               ///< frames per wall second
    std::vector<double> cpu_ms_per_frame;  ///< process CPU ms per frame
};
[[nodiscard]] WindowRates window_rates(const std::vector<Mark>& marks,
                                       std::int64_t min_frames);

}  // namespace e2e
