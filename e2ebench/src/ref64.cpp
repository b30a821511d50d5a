#include "ref64.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "deploy/fold_bn.hpp"
#include "nn/activations.hpp"
#include "nn/dwconv.hpp"
#include "nn/pooling.hpp"
#include "nn/pwconv.hpp"
#include "nn/space_to_depth.hpp"

namespace e2e {
namespace {

using sky::Shape;
namespace nn = sky::nn;

std::int64_t at(const Shape& s, int n, int c, int h, int w) {
    return ((static_cast<std::int64_t>(n) * s.c + c) * s.h + h) * s.w + w;
}

Tensor64 make(const Shape& s) {
    return {s, std::vector<double>(static_cast<std::size_t>(s.count()), 0.0)};
}

Tensor64 dwconv3(const nn::DWConv3& m, const Tensor64& x) {
    const Shape& s = x.shape;
    if (s.c != m.channels()) throw std::invalid_argument("ref64: DWConv3 channel mismatch");
    Tensor64 y = make(s);
    const float* wt = m.weight().data();  // [channels, 1, 3, 3]
    for (int n = 0; n < s.n; ++n)
        for (int c = 0; c < s.c; ++c)
            for (int oh = 0; oh < s.h; ++oh)
                for (int ow = 0; ow < s.w; ++ow) {
                    double acc = 0.0;
                    for (int kh = 0; kh < 3; ++kh)
                        for (int kw = 0; kw < 3; ++kw) {
                            const int ih = oh - 1 + kh, iw = ow - 1 + kw;
                            if (ih < 0 || ih >= s.h || iw < 0 || iw >= s.w) continue;
                            acc += static_cast<double>(wt[c * 9 + kh * 3 + kw]) *
                                   x.data[at(s, n, c, ih, iw)];
                        }
                    y.data[at(s, n, c, oh, ow)] = acc;
                }
    return y;
}

Tensor64 pwconv1(const nn::PWConv1& m, const Tensor64& x) {
    const Shape& s = x.shape;
    if (s.c != m.in_channels()) throw std::invalid_argument("ref64: PWConv1 channel mismatch");
    const int groups = m.groups();
    const int ipg = m.in_channels() / groups, opg = m.out_channels() / groups;
    Tensor64 y = make({s.n, m.out_channels(), s.h, s.w});
    const std::int64_t plane = static_cast<std::int64_t>(s.h) * s.w;
    const float* wt = m.weight().data();  // [out_ch, ipg, 1, 1]
    // Every output element sums its ipg products in input-channel order,
    // walked plane by plane so the loop streams through memory.
    for (int n = 0; n < s.n; ++n)
        for (int oc = 0; oc < m.out_channels(); ++oc) {
            double* yp = y.data.data() + at(y.shape, n, oc, 0, 0);
            const double b = m.has_bias() ? static_cast<double>(m.bias()[oc]) : 0.0;
            std::fill_n(yp, plane, b);
            const int g = oc / opg;
            for (int i = 0; i < ipg; ++i) {
                const double wv = wt[static_cast<std::int64_t>(oc) * ipg + i];
                const double* xp = x.data.data() + at(s, n, g * ipg + i, 0, 0);
                for (std::int64_t k = 0; k < plane; ++k) yp[k] += wv * xp[k];
            }
        }
    return y;
}

Tensor64 channel_bias(const sky::deploy::ChannelBias& m, const Tensor64& x) {
    const Shape& s = x.shape;
    const std::vector<float>& b = m.values();
    if (static_cast<std::size_t>(s.c) != b.size())
        throw std::invalid_argument("ref64: ChannelBias channel mismatch");
    Tensor64 y = x;
    for (int n = 0; n < s.n; ++n)
        for (int c = 0; c < s.c; ++c)
            for (int h = 0; h < s.h; ++h)
                for (int w = 0; w < s.w; ++w) y.data[at(s, n, c, h, w)] += b[c];
    return y;
}

Tensor64 activation(const nn::Activation& m, const Tensor64& x) {
    Tensor64 y = x;
    for (double& v : y.data) {
        switch (m.act_kind()) {
            case nn::Act::kReLU: v = std::max(v, 0.0); break;
            case nn::Act::kReLU6: v = std::min(std::max(v, 0.0), 6.0); break;
            case nn::Act::kLeaky: v = v > 0.0 ? v : m.leaky_slope() * v; break;
            case nn::Act::kSigmoid: v = 1.0 / (1.0 + std::exp(-v)); break;
        }
    }
    return y;
}

Tensor64 maxpool2(const Tensor64& x) {
    const Shape& s = x.shape;
    Tensor64 y = make({s.n, s.c, s.h / 2, s.w / 2});
    for (int n = 0; n < s.n; ++n)
        for (int c = 0; c < s.c; ++c)
            for (int oh = 0; oh < s.h / 2; ++oh)
                for (int ow = 0; ow < s.w / 2; ++ow) {
                    double best = x.data[at(s, n, c, 2 * oh, 2 * ow)];
                    for (int dy = 0; dy < 2; ++dy)
                        for (int dx = 0; dx < 2; ++dx)
                            best = std::max(best, x.data[at(s, n, c, 2 * oh + dy, 2 * ow + dx)]);
                    y.data[at(y.shape, n, c, oh, ow)] = best;
                }
    return y;
}

Tensor64 space_to_depth(const nn::SpaceToDepth& m, const Tensor64& x) {
    const Shape& s = x.shape;
    const int b = m.block();
    if (s.h % b != 0 || s.w % b != 0)
        throw std::invalid_argument("ref64: SpaceToDepth input not divisible by block");
    Tensor64 y = make({s.n, s.c * b * b, s.h / b, s.w / b});
    for (int n = 0; n < s.n; ++n)
        for (int c = 0; c < s.c; ++c)
            for (int dy = 0; dy < b; ++dy)
                for (int dx = 0; dx < b; ++dx)
                    for (int oh = 0; oh < s.h / b; ++oh)
                        for (int ow = 0; ow < s.w / b; ++ow)
                            y.data[at(y.shape, n, c * b * b + dy * b + dx, oh, ow)] =
                                x.data[at(s, n, c, oh * b + dy, ow * b + dx)];
    return y;
}

Tensor64 apply(const nn::Module& m, const Tensor64& x) {
    if (const auto* p = dynamic_cast<const nn::DWConv3*>(&m)) return dwconv3(*p, x);
    if (const auto* p = dynamic_cast<const nn::PWConv1*>(&m)) return pwconv1(*p, x);
    if (const auto* p = dynamic_cast<const sky::deploy::ChannelBias*>(&m))
        return channel_bias(*p, x);
    if (const auto* p = dynamic_cast<const nn::Activation*>(&m)) return activation(*p, x);
    if (dynamic_cast<const nn::MaxPool2*>(&m)) return maxpool2(x);
    if (const auto* p = dynamic_cast<const nn::SpaceToDepth*>(&m))
        return space_to_depth(*p, x);
    if (dynamic_cast<const sky::deploy::Identity*>(&m)) return x;
    throw std::invalid_argument("ref64: no float64 reference for module " + m.name());
}

Tensor64 concat(const std::vector<const Tensor64*>& parts) {
    Shape s = parts.at(0)->shape;
    s.c = 0;
    for (const Tensor64* p : parts) {
        if (p->shape.n != s.n || p->shape.h != s.h || p->shape.w != s.w)
            throw std::invalid_argument("ref64: concat shape mismatch");
        s.c += p->shape.c;
    }
    Tensor64 y = make(s);
    const std::int64_t plane = static_cast<std::int64_t>(s.h) * s.w;
    for (int n = 0; n < s.n; ++n) {
        int c0 = 0;
        for (const Tensor64* p : parts) {
            const std::int64_t count = p->shape.c * plane;
            std::copy_n(p->data.begin() + at(p->shape, n, 0, 0, 0), count,
                        y.data.begin() + at(s, n, c0, 0, 0));
            c0 += p->shape.c;
        }
    }
    return y;
}

}  // namespace

Tensor64 forward_f64(const nn::Graph& graph, const sky::Tensor& x) {
    const std::size_t nodes = graph.node_count();
    // Last reader of every node, so values are freed as soon as they die
    // (a full-width SkyNet keeps only a few double maps alive at once).
    std::vector<std::size_t> last_use(nodes, 0);
    for (std::size_t i = 0; i < nodes; ++i)
        for (int in : graph.node_inputs(i)) last_use.at(static_cast<std::size_t>(in)) = i;
    last_use.at(static_cast<std::size_t>(graph.output_node())) = nodes;

    std::vector<Tensor64> values(nodes);
    for (std::size_t i = 0; i < nodes; ++i) {
        const std::vector<int>& ins = graph.node_inputs(i);
        switch (graph.node_kind(i)) {
            case nn::Graph::NodeKind::kInput:
                values[i] = {x.shape(), std::vector<double>(x.data(), x.data() + x.size())};
                break;
            case nn::Graph::NodeKind::kModule:
                values[i] = apply(*graph.node_module(i), values.at(ins.at(0)));
                break;
            case nn::Graph::NodeKind::kConcat: {
                std::vector<const Tensor64*> parts;
                for (int in : ins) parts.push_back(&values.at(in));
                values[i] = concat(parts);
                break;
            }
            case nn::Graph::NodeKind::kAdd: {
                values[i] = values.at(ins.at(0));
                const Tensor64& b = values.at(ins.at(1));
                if (!(b.shape == values[i].shape))
                    throw std::invalid_argument("ref64: add shape mismatch");
                for (std::size_t k = 0; k < b.data.size(); ++k) values[i].data[k] += b.data[k];
                break;
            }
        }
        for (int in : ins)
            if (last_use[static_cast<std::size_t>(in)] == i) values[in] = Tensor64{};
    }
    return std::move(values.at(static_cast<std::size_t>(graph.output_node())));
}

double max_abs_diff(const sky::Tensor& a, const Tensor64& b) {
    if (!(a.shape() == b.shape))
        throw std::invalid_argument("ref64: compared shapes differ: " + a.shape().str() +
                                    " vs " + b.shape.str());
    double worst = 0.0;
    for (std::int64_t i = 0; i < a.size(); ++i) {
        const double d = std::abs(static_cast<double>(a[i]) - b.data[i]);
        if (std::isnan(d)) return std::numeric_limits<double>::infinity();
        worst = std::max(worst, d);
    }
    return worst;
}

}  // namespace e2e
