#include "core/sweep_kernel.h"

#include "common/check.h"

namespace d2pr {

void PowerSweep(const SweepRows& rows, const SweepTerms& terms,
                std::span<const double> values,
                std::span<const double> previous, std::span<double> out) {
  const size_t num_rows = rows.num_rows();
  D2PR_DCHECK(rows.in_offsets.size() == num_rows + 1);
  D2PR_DCHECK(rows.dangling.size() == num_rows);
  D2PR_DCHECK(out.size() == num_rows);
  D2PR_DCHECK(terms.policy != DanglingPolicy::kSelfLoop ||
              previous.size() == num_rows);
  const EdgeIndex* offsets = rows.in_offsets.data();
  const NodeId* sources = rows.sources.data();
  const double* probs = rows.probs.data();
  const double* teleport = rows.teleport.data();
  const double* x = values.data();
  const double alpha = terms.alpha;
  const double mass = terms.dangling_mass;
  for (size_t k = 0; k < num_rows; ++k) {
    double value = 0.0;
    const EdgeIndex end = offsets[k + 1];
    for (EdgeIndex idx = offsets[k]; idx < end; ++idx) {
      value += x[sources[idx]] * probs[idx];
    }
    switch (terms.policy) {
      case DanglingPolicy::kTeleport:
        if (mass > 0.0) value += mass * teleport[k];
        break;
      case DanglingPolicy::kSelfLoop:
        if (rows.dangling[k]) value += previous[k];
        break;
      case DanglingPolicy::kRenormalize:
        break;
    }
    out[k] = alpha * value + (1.0 - alpha) * teleport[k];
  }
}

void GaussSeidelSweep(const SweepRows& rows, const SweepTerms& terms,
                      std::span<double> values) {
  const size_t num_rows = rows.num_rows();
  D2PR_DCHECK(rows.in_offsets.size() == num_rows + 1);
  D2PR_DCHECK(rows.dangling.size() == num_rows);
  D2PR_DCHECK(values.size() >= num_rows);
  const EdgeIndex* offsets = rows.in_offsets.data();
  const NodeId* sources = rows.sources.data();
  const double* probs = rows.probs.data();
  const double* teleport = rows.teleport.data();
  double* x = values.data();
  const double alpha = terms.alpha;
  const double mass = terms.dangling_mass;
  for (size_t k = 0; k < num_rows; ++k) {
    double incoming = 0.0;
    const EdgeIndex end = offsets[k + 1];
    for (EdgeIndex idx = offsets[k]; idx < end; ++idx) {
      incoming += probs[idx] * x[sources[idx]];
    }
    double value = alpha * incoming + (1.0 - alpha) * teleport[k];
    switch (terms.policy) {
      case DanglingPolicy::kTeleport:
        value += alpha * mass * teleport[k];
        break;
      case DanglingPolicy::kSelfLoop:
        if (rows.dangling[k]) value /= (1.0 - alpha);
        break;
      case DanglingPolicy::kRenormalize:
        break;
    }
    x[k] = value;
  }
}

}  // namespace d2pr
