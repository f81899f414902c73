#pragma once
// Field synthesis: latent Lorenz-96 weather -> gridded CAM-like fields.
//
// Each variable owns a fixed spatial basis (low-wavenumber harmonics with
// variable-specific spectral weights controlling smoothness; each mode is a
// longitude factor times a latitude factor, stored factored), a fixed
// climatological pattern, and a coupling of its anomaly coefficients to
// the member's latent time-means. Members therefore differ exactly the way
// PVT ensemble members differ: same climate, chaotic weather.
//
// Pointwise ensemble statistics are analytically well-behaved: the
// ensemble variance at column x is  sum_j w_j^2 phi_j(x)^2 + noise^2 > 0,
// so Z-scores (paper eq. 6) are always defined.

#include <span>

#include "climate/field.h"
#include "climate/grid.h"
#include "climate/lorenz.h"
#include "climate/variables.h"

namespace cesm::climate {

class FieldSynthesizer {
 public:
  /// Number of anomaly basis modes per variable.
  static constexpr std::size_t kModes = 24;

  FieldSynthesizer(const Grid& grid, const VariableSpec& spec, const Lorenz96& latent);

  /// Synthesize the variable for one member given that member's latent
  /// time-means (from Lorenz96::member_time_means).
  [[nodiscard]] Field synthesize(std::span<const double> member_means,
                                 std::uint32_t member) const;

  /// Synthesize elements [elem_lo, elem_hi) of the row-major field into
  /// `out` (out.size() == elem_hi - elem_lo). Bit-identical to the same
  /// slice of synthesize() for ANY range: each level's noise stream is
  /// re-seeded per (member, level) and consumed from the level start (draws
  /// before elem_lo are burned), so the out-of-core pipeline can synthesize
  /// chunk-by-chunk without ever materializing the full member.
  void synthesize_range(std::span<const double> member_means, std::uint32_t member,
                        std::size_t elem_lo, std::size_t elem_hi,
                        std::span<float> out) const;

  /// Total elements of this variable's field (nlev * ncol; nlev = 1 for 2-D).
  [[nodiscard]] std::size_t element_count() const;

  [[nodiscard]] const VariableSpec& spec() const { return spec_; }

  /// The land mask shared by all fill-valued variables (1 = land = fill).
  static std::vector<std::uint8_t> land_mask(const Grid& grid);

 private:
  /// Standardized latent anomaly coefficients for a member.
  [[nodiscard]] std::vector<double> standardized(std::span<const double> means) const;

  /// Map the standardized signal g to physical units at level fraction lf.
  [[nodiscard]] float transform(double g, double level_fraction) const;

  const Grid& grid_;
  VariableSpec spec_;
  const Lorenz96::Climatology& clim_;
  std::vector<std::size_t> latent_idx_;          // kModes indices into latent state
  std::vector<double> mode_weight_;              // kModes spectral weights
  std::vector<double> lon_factor_;               // nlon x kModes zonal basis factors
  std::vector<double> lat_factor_;               // nlat x kModes meridional factors
  std::vector<double> pattern_coeff_;            // nlev x kModes fixed climatology
  std::vector<double> mix_angle_rate_;           // kModes vertical decorrelation rates
  std::vector<std::uint8_t> mask_;               // land mask when has_fill
};

}  // namespace cesm::climate
