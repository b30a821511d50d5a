#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace e2e {

double percentile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double split_percentile(const std::vector<double>& v, double q, int parts) {
    if (parts < 1 || v.size() < static_cast<std::size_t>(parts) * 40) return percentile(v, q);
    std::vector<double> per_part;
    for (int p = 0; p < parts; ++p) {
        const auto lo = v.begin() + static_cast<std::ptrdiff_t>(v.size() * p / parts);
        const auto hi = v.begin() + static_cast<std::ptrdiff_t>(v.size() * (p + 1) / parts);
        per_part.push_back(percentile(std::vector<double>(lo, hi), q));
    }
    return median(std::move(per_part));
}

double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

Clock::time_point PeriodicSchedule::due(std::int64_t i) const {
    // Multiply, never accumulate: frame i's due time carries no rounding
    // drift from the i-1 periods before it.
    const auto offset = std::chrono::duration<double, std::milli>(
        period_ms * static_cast<double>(i));
    return start + std::chrono::duration_cast<Clock::duration>(offset);
}

double lateness_ms(const FrameTiming& f) { return ms_between(f.ready, f.sent); }

double latency_ms(const FrameTiming& f) { return lateness_ms(f) + f.engine_total_ms; }

WindowRates window_rates(const std::vector<Mark>& marks, std::int64_t min_frames) {
    WindowRates out;
    if (marks.empty() || min_frames < 1) return out;
    std::size_t begin = 0;
    for (std::size_t i = 1; i < marks.size(); ++i) {
        const Mark& a = marks[begin];
        const Mark& b = marks[i];
        const std::int64_t frames = b.frames - a.frames;
        const double wall_s = ms_between(a.t, b.t) / 1e3;
        if (frames < min_frames || wall_s <= 0.0) continue;
        out.fps.push_back(static_cast<double>(frames) / wall_s);
        out.cpu_ms_per_frame.push_back((b.cpu_s - a.cpu_s) * 1e3 /
                                       static_cast<double>(frames));
        begin = i;
    }
    return out;
}

}  // namespace e2e
