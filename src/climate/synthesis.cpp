#include "climate/synthesis.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/error.h"
#include "util/rng.h"

namespace cesm::climate {

namespace {

constexpr double kPatternAmplitude = 1.6;  // climatology vs ensemble spread

}  // namespace

std::vector<std::uint8_t> FieldSynthesizer::land_mask(const Grid& grid) {
  std::vector<std::uint8_t> mask(grid.columns(), 0);
  for (std::size_t c = 0; c < grid.columns(); ++c) {
    const double lat = grid.latitude(c);
    const double lon = grid.longitude(c);
    const double continents = std::sin(2.0 * lat + 0.3) * std::cos(2.0 * lon + 1.1) +
                              0.5 * std::sin(3.0 * lon) * std::cos(3.0 * lat) +
                              0.3 * std::cos(lon - 0.7);
    mask[c] = continents > 0.35 ? 1 : 0;
  }
  return mask;
}

FieldSynthesizer::FieldSynthesizer(const Grid& grid, const VariableSpec& spec,
                                   const Lorenz96& latent)
    : grid_(grid), spec_(spec), clim_(latent.climatology()) {
  const std::size_t k_latent = clim_.mean.size();
  CESM_REQUIRE(k_latent >= kModes);

  SplitMix64 h(hash_combine(spec_.stream, 0xba515ull));

  latent_idx_.resize(kModes);
  for (std::size_t j = 0; j < kModes; ++j) {
    latent_idx_[j] = (h.next() + j * 5) % k_latent;
  }

  // Spectral weights: w_j ~ (1+j)^-smoothness, normalized so that
  // sum w^2 = 1 - noise^2 (the remaining variance is white noise).
  mode_weight_.resize(kModes);
  double sum2 = 0.0;
  for (std::size_t j = 0; j < kModes; ++j) {
    mode_weight_[j] = std::pow(1.0 + static_cast<double>(j), -spec_.smoothness);
    sum2 += mode_weight_[j] * mode_weight_[j];
  }
  const double target = 1.0 - spec_.noise_frac * spec_.noise_frac;
  CESM_REQUIRE(target > 0.0);
  const double norm = std::sqrt(target / sum2);
  for (double& w : mode_weight_) w *= norm;

  // Spatial basis: low-wavenumber spherical harmonics look-alikes with
  // deterministic phases; wavenumbers grow with mode index so the weight
  // spectrum directly controls smoothness. On the regular lat-lon grid the
  // basis is separable: mode j at the column in latitude row r and
  // longitude i is lon_factor_[i * kModes + j] * lat_factor_[r * kModes + j],
  // so kModes x (nlat + nlon) doubles hold it. Each table keeps a point's
  // kModes factors adjacent, in the order the synthesis sum reads them.
  const std::size_t nlat = grid.spec().nlat;
  const std::size_t nlon = grid.spec().nlon;
  lon_factor_.resize(nlon * kModes);
  lat_factor_.resize(nlat * kModes);
  constexpr double pi = std::numbers::pi;
  for (std::size_t j = 0; j < kModes; ++j) {
    const auto zonal = static_cast<double>(1 + j % 6 + j / 8);
    const auto merid = static_cast<double>(1 + j / 4);
    const double phase_lon = 2.0 * pi * static_cast<double>(h.next() % 1024) / 1024.0;
    const double phase_lat = 2.0 * pi * static_cast<double>(h.next() % 1024) / 1024.0;
    // sqrt(2)-ish factors keep the spatial mean square near 1.
    for (std::size_t i = 0; i < nlon; ++i) {
      lon_factor_[i * kModes + j] = 2.0 * std::cos(zonal * grid.longitude(i) + phase_lon);
    }
    for (std::size_t r = 0; r < nlat; ++r) {
      lat_factor_[r * kModes + j] =
          std::cos(merid * (grid.latitude(r * nlon) + pi / 2.0) + phase_lat);
    }
  }

  // Fixed climatological pattern coefficients per level.
  const std::size_t nlev = spec_.is_3d ? grid.levels() : 1;
  pattern_coeff_.resize(nlev * kModes);
  NormalSampler pat(hash_combine(spec_.stream, 0xc11ae5ull));
  // Vertically coherent: level l pattern = base pattern slowly rotated.
  std::vector<double> base(kModes), alt(kModes);
  for (double& b : base) b = pat.next();
  for (double& a : alt) a = pat.next();
  for (std::size_t l = 0; l < nlev; ++l) {
    const double lf = nlev > 1 ? static_cast<double>(l) / static_cast<double>(nlev - 1) : 0.5;
    for (std::size_t j = 0; j < kModes; ++j) {
      const double theta = 0.8 * lf * (1.0 + static_cast<double>(j % 3));
      pattern_coeff_[l * kModes + j] =
          base[j] * std::cos(theta) + alt[j] * std::sin(theta);
    }
  }

  // Vertical decorrelation rates for the anomaly coefficients.
  mix_angle_rate_.resize(kModes);
  for (std::size_t j = 0; j < kModes; ++j) {
    mix_angle_rate_[j] = 0.5 + 1.5 * static_cast<double>(h.next() % 1024) / 1024.0;
  }

  if (spec_.has_fill) mask_ = land_mask(grid);
}

std::vector<double> FieldSynthesizer::standardized(std::span<const double> means) const {
  std::vector<double> z(kModes);
  for (std::size_t j = 0; j < kModes; ++j) {
    const std::size_t idx = latent_idx_[j];
    z[j] = (means[idx] - clim_.mean[idx]) / clim_.stddev[idx];
  }
  return z;
}

float FieldSynthesizer::transform(double g, double lf) const {
  switch (spec_.transform) {
    case TransformKind::kLinear: {
      const double center = spec_.center + spec_.vertical_gradient * (1.0 - lf);
      const double scale = spec_.scale * (1.0 + (spec_.vertical_scale - 1.0) * lf);
      return static_cast<float>(center + scale * g);
    }
    case TransformKind::kPositive: {
      const double center = spec_.center + spec_.vertical_gradient * (1.0 - lf);
      const double scale = spec_.scale * (1.0 + (spec_.vertical_scale - 1.0) * lf);
      return static_cast<float>(std::max(0.0, center + scale * g));
    }
    case TransformKind::kLogNormal: {
      return static_cast<float>(std::exp(spec_.log_mu + spec_.log_sigma * g));
    }
    case TransformKind::kBounded01: {
      const double s = 1.0 / (1.0 + std::exp(-1.2 * g));
      return static_cast<float>(spec_.bound_lo + (spec_.bound_hi - spec_.bound_lo) * s);
    }
  }
  throw InvalidArgument("unknown transform kind");
}

std::size_t FieldSynthesizer::element_count() const {
  return (spec_.is_3d ? grid_.levels() : 1) * grid_.columns();
}

Field FieldSynthesizer::synthesize(std::span<const double> member_means,
                                   std::uint32_t member) const {
  const std::size_t ncol = grid_.columns();
  const std::size_t nlev = spec_.is_3d ? grid_.levels() : 1;

  Field field;
  field.name = spec_.name;
  field.shape = spec_.is_3d ? comp::Shape::d2(nlev, ncol) : comp::Shape::d1(ncol);
  field.data.resize(nlev * ncol);
  if (spec_.has_fill) field.fill = kFillValue;

  synthesize_range(member_means, member, 0, field.data.size(), field.data);
  return field;
}

void FieldSynthesizer::synthesize_range(std::span<const double> member_means,
                                        std::uint32_t member, std::size_t elem_lo,
                                        std::size_t elem_hi,
                                        std::span<float> out) const {
  CESM_REQUIRE(member_means.size() == clim_.mean.size());
  const std::size_t ncol = grid_.columns();
  const std::size_t nlev = spec_.is_3d ? grid_.levels() : 1;
  CESM_REQUIRE(elem_lo <= elem_hi && elem_hi <= nlev * ncol);
  CESM_REQUIRE(out.size() == elem_hi - elem_lo);

  const std::size_t nlon = grid_.spec().nlon;
  const std::vector<double> z = standardized(member_means);

  std::vector<double> coeff(kModes);
  for (std::size_t l = elem_lo / ncol; l * ncol < elem_hi; ++l) {
    const double lf = nlev > 1 ? static_cast<double>(l) / static_cast<double>(nlev - 1) : 0.5;
    // Level coefficients: climatological pattern + vertically rotated
    // member anomaly (pairs of latent features keep levels coherent but
    // not identical).
    for (std::size_t j = 0; j < kModes; ++j) {
      const double theta = mix_angle_rate_[j] * lf;
      const double zj = z[j] * std::cos(theta) + z[(j + 7) % kModes] * std::sin(theta);
      coeff[j] = kPatternAmplitude * mode_weight_[j] * pattern_coeff_[l * kModes + j] +
                 spec_.anomaly_frac * mode_weight_[j] * zj;
    }

    // Per-(member, variable, level) small-scale noise stream. The stream is
    // consumed column-sequentially from the level start, so a range that
    // enters the level mid-row burns the preceding draws — that keeps every
    // emitted value identical to the full-field synthesis regardless of how
    // the caller partitions the element range.
    NormalSampler noise(
        hash_combine(spec_.stream, hash_combine(0x4015eull + member, l)));

    const std::size_t c_lo = l * ncol < elem_lo ? elem_lo - l * ncol : 0;
    const std::size_t c_hi = std::min(ncol, elem_hi - l * ncol);
    for (std::size_t c = 0; c < c_lo; ++c) (void)noise.next();

    float* dst = out.data() + (l * ncol + c_lo - elem_lo);
    // One latitude row at a time, so no column index is divided. Each
    // column sums its modes from 0.0 in the order j = 0..kModes-1, each
    // term coeff * (lon * lat): the same doubles a precomputed per-column
    // basis value gave.
    for (std::size_t r = c_lo / nlon; r * nlon < c_hi; ++r) {
      const std::size_t i_lo = r * nlon < c_lo ? c_lo - r * nlon : 0;
      const std::size_t i_hi = std::min(nlon, c_hi - r * nlon);
      const double* lat = lat_factor_.data() + r * kModes;
      float* row_dst = dst + (r * nlon + i_lo - c_lo);
      for (std::size_t i = i_lo; i < i_hi; ++i) {
        const double* lon = lon_factor_.data() + i * kModes;
        double g = 0.0;
        for (std::size_t j = 0; j < kModes; ++j) g += coeff[j] * (lon[j] * lat[j]);
        g += spec_.anomaly_frac * spec_.noise_frac * noise.next();
        row_dst[i - i_lo] = transform(g, lf);
      }
    }
    if (spec_.has_fill) {
      for (std::size_t c = c_lo; c < c_hi; ++c) {
        if (mask_[c]) dst[c - c_lo] = kFillValue;
      }
    }
  }
}

}  // namespace cesm::climate
