#include "climate/lorenz.h"

#include <cmath>

#include "util/error.h"
#include "util/rng.h"

namespace cesm::climate {

Lorenz96::Lorenz96(const Lorenz96Spec& spec) : spec_(spec) {
  CESM_REQUIRE(spec.k >= 8);
  CESM_REQUIRE(spec.dt > 0.0 && spec.dt <= 0.2);
  CESM_REQUIRE(spec.average_steps > 0);

  // Base initial condition: the fixed point X = F with a deterministic kick
  // to leave it, then a long settle onto the attractor.
  base_ic_.assign(spec_.k, spec_.forcing);
  NormalSampler kick(hash_combine(spec_.seed, 0x1c0ffeeull));
  for (double& x : base_ic_) x += 0.01 * kick.next();
  {
    std::vector<double> state = base_ic_;
    std::vector<double> k1(spec_.k), k2(spec_.k), k3(spec_.k), k4(spec_.k), tmp(spec_.k);
    for (std::size_t s = 0; s < 2000; ++s) {
      // One RK4 step (inlined; integrate_means repeats this pattern).
      tendency(state, spec_.forcing, k1);
      for (std::size_t i = 0; i < spec_.k; ++i) tmp[i] = state[i] + 0.5 * spec_.dt * k1[i];
      tendency(tmp, spec_.forcing, k2);
      for (std::size_t i = 0; i < spec_.k; ++i) tmp[i] = state[i] + 0.5 * spec_.dt * k2[i];
      tendency(tmp, spec_.forcing, k3);
      for (std::size_t i = 0; i < spec_.k; ++i) tmp[i] = state[i] + spec_.dt * k3[i];
      tendency(tmp, spec_.forcing, k4);
      for (std::size_t i = 0; i < spec_.k; ++i) {
        state[i] += spec_.dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
      }
    }
    base_ic_ = state;
  }

  // Climatology from a sequence of independent control windows: integrate
  // 64 consecutive "years" from the settled state and pool their means.
  constexpr std::size_t kControlYears = 64;
  std::vector<std::vector<double>> control;
  control.reserve(kControlYears);
  {
    std::vector<double> state = base_ic_;
    for (std::size_t y = 0; y < kControlYears; ++y) {
      // Perturb microscopically so successive years decorrelate fully even
      // if average windows were short.
      NormalSampler bump(hash_combine(spec_.seed, 0xc0ffee00ull + y));
      for (double& x : state) x += 1e-10 * bump.next();
      control.push_back(integrate_means(state));
      // Continue from where the averaging window left the trajectory: we
      // re-integrate from the same state; advance deterministically by one
      // window using integrate_means' side-effect-free contract, so just
      // advance the state with a fresh integration below.
      std::vector<double> k1(spec_.k), k2(spec_.k), k3(spec_.k), k4(spec_.k), tmp(spec_.k);
      for (std::size_t s = 0; s < spec_.average_steps; ++s) {
        tendency(state, spec_.forcing, k1);
        for (std::size_t i = 0; i < spec_.k; ++i) tmp[i] = state[i] + 0.5 * spec_.dt * k1[i];
        tendency(tmp, spec_.forcing, k2);
        for (std::size_t i = 0; i < spec_.k; ++i) tmp[i] = state[i] + 0.5 * spec_.dt * k2[i];
        tendency(tmp, spec_.forcing, k3);
        for (std::size_t i = 0; i < spec_.k; ++i) tmp[i] = state[i] + spec_.dt * k3[i];
        tendency(tmp, spec_.forcing, k4);
        for (std::size_t i = 0; i < spec_.k; ++i) {
          state[i] += spec_.dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
      }
    }
  }
  climatology_.mean.assign(spec_.k, 0.0);
  climatology_.stddev.assign(spec_.k, 0.0);
  for (const auto& means : control) {
    for (std::size_t i = 0; i < spec_.k; ++i) climatology_.mean[i] += means[i];
  }
  for (double& m : climatology_.mean) m /= static_cast<double>(kControlYears);
  for (const auto& means : control) {
    for (std::size_t i = 0; i < spec_.k; ++i) {
      const double d = means[i] - climatology_.mean[i];
      climatology_.stddev[i] += d * d;
    }
  }
  for (double& s : climatology_.stddev) {
    s = std::sqrt(s / static_cast<double>(kControlYears - 1));
    if (s <= 0.0) s = 1.0;  // defensive; never happens in the chaotic regime
  }
}

void Lorenz96::tendency(const std::vector<double>& x, double forcing,
                        std::vector<double>& dxdt) {
  // The cyclic neighbours wrap with compares, not `% k`: three integer
  // divisions per element per RK4 stage dominated the settle and control
  // integrations of the constructor. Same values, same arithmetic order.
  const std::size_t k = x.size();
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t im1 = i == 0 ? k - 1 : i - 1;
    const std::size_t im2 = im1 == 0 ? k - 1 : im1 - 1;
    const std::size_t ip1 = i + 1 == k ? 0 : i + 1;
    dxdt[i] = -x[im1] * (x[im2] - x[ip1]) - x[i] + forcing;
  }
}

std::vector<double> Lorenz96::integrate_means(std::vector<double> state) const {
  std::vector<double> k1(spec_.k), k2(spec_.k), k3(spec_.k), k4(spec_.k), tmp(spec_.k);
  std::vector<double> mean(spec_.k, 0.0);
  const std::size_t total = spec_.spinup_steps + spec_.average_steps;
  for (std::size_t s = 0; s < total; ++s) {
    tendency(state, spec_.forcing, k1);
    for (std::size_t i = 0; i < spec_.k; ++i) tmp[i] = state[i] + 0.5 * spec_.dt * k1[i];
    tendency(tmp, spec_.forcing, k2);
    for (std::size_t i = 0; i < spec_.k; ++i) tmp[i] = state[i] + 0.5 * spec_.dt * k2[i];
    tendency(tmp, spec_.forcing, k3);
    for (std::size_t i = 0; i < spec_.k; ++i) tmp[i] = state[i] + spec_.dt * k3[i];
    tendency(tmp, spec_.forcing, k4);
    for (std::size_t i = 0; i < spec_.k; ++i) {
      state[i] += spec_.dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
    }
    if (s >= spec_.spinup_steps) {
      for (std::size_t i = 0; i < spec_.k; ++i) mean[i] += state[i];
    }
  }
  for (double& m : mean) m /= static_cast<double>(spec_.average_steps);
  return mean;
}

std::vector<double> Lorenz96::member_time_means(std::uint32_t member) const {
  std::vector<double> state = base_ic_;
  if (member > 0) {
    // O(1e-14) perturbation, the magnitude the CESM-PVT applies to the
    // initial atmospheric temperature (§4.3).
    NormalSampler perturb(hash_combine(spec_.seed, 0xabcd0000ull + member));
    for (double& x : state) x += 1e-14 * perturb.next();
  }
  return integrate_means(state);
}

}  // namespace cesm::climate
