#include "climate/ensemble.h"

#include "util/scheduler.h"
#include "util/trace.h"

namespace cesm::climate {

EnsembleGenerator::EnsembleGenerator(const EnsembleSpec& spec)
    : spec_(spec), grid_(spec.grid), latent_(spec.latent), catalog_(build_catalog()) {
  base_means_.resize(spec_.members);
  parallel_for(0, spec_.members, [this](std::size_t m) {
    base_means_[m] = latent_.member_time_means(static_cast<std::uint32_t>(m));
  });
}

const FieldSynthesizer& EnsembleGenerator::synthesizer(const VariableSpec& var) const {
  std::lock_guard lock(mu_);
  auto it = synths_.find(var.name);
  if (it == synths_.end()) {
    it = synths_
             .emplace(var.name,
                      std::make_unique<FieldSynthesizer>(grid_, var, latent_))
             .first;
  }
  return *it->second;
}

const std::vector<double>& EnsembleGenerator::member_means(std::uint32_t member) const {
  if (member < base_means_.size()) return base_means_[member];
  std::lock_guard lock(mu_);
  auto it = extra_means_.find(member);
  if (it == extra_means_.end()) {
    it = extra_means_.emplace(member, latent_.member_time_means(member)).first;
  }
  return it->second;
}

Field EnsembleGenerator::field(const VariableSpec& var, std::uint32_t member) const {
  const FieldSynthesizer& synth = synthesizer(var);
  return synth.synthesize(member_means(member), member);
}

Field EnsembleGenerator::field(const std::string& name, std::uint32_t member) const {
  return field(variable(name), member);
}

void EnsembleGenerator::field_range(const VariableSpec& var, std::uint32_t member,
                                    std::size_t elem_lo, std::size_t elem_hi,
                                    std::span<float> out) const {
  const FieldSynthesizer& synth = synthesizer(var);
  synth.synthesize_range(member_means(member), member, elem_lo, elem_hi, out);
}

std::size_t EnsembleGenerator::field_elems(const VariableSpec& var) const {
  return synthesizer(var).element_count();
}

std::vector<Field> EnsembleGenerator::ensemble_fields(const VariableSpec& var) const {
  trace::Span span("ensemble.synthesize");
  (void)synthesizer(var);  // construct once before fanning out
  std::vector<Field> fields(spec_.members);
  parallel_for(0, spec_.members, [&](std::size_t m) {
    fields[m] = field(var, static_cast<std::uint32_t>(m));
  });
  trace::add(trace::Counter::kEnsembleFields, fields.size());
  trace::add(trace::Counter::kEnsembleElements,
             fields.empty() ? 0 : fields.size() * fields.front().size());
  return fields;
}

}  // namespace cesm::climate
