// Plain-loop float64 evaluation of a BN-folded SkyNet graph.
//
// An oracle for the fp32 inference path that shares no code with it: no
// GEMM packing, no SIMD, no thread pool, every sum accumulated in double in
// the textbook loop order.  Weights are read through the modules' const
// accessors only (the mutable ones invalidate prepacked panels).  Covers the
// node kinds a folded SkyNet graph holds: DWConv3, ChannelBias, Activation,
// PWConv1, Identity, MaxPool2, SpaceToDepth, channel concat and add.  Any
// other module throws std::invalid_argument.
#pragma once

#include <vector>

#include "nn/graph.hpp"

namespace e2e {

struct Tensor64 {
    sky::Shape shape;
    std::vector<double> data;
};

/// Evaluate `graph` on the {n,3,h,w} input `x`; returns the output node's
/// value.
[[nodiscard]] Tensor64 forward_f64(const sky::nn::Graph& graph, const sky::Tensor& x);

/// Largest |a - b| over all elements; throws std::invalid_argument when the
/// shapes differ.
[[nodiscard]] double max_abs_diff(const sky::Tensor& a, const Tensor64& b);

}  // namespace e2e
