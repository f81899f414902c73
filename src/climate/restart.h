#pragma once
// Restart (checkpoint) file synthesis.
//
// Paper §1: CESM writes restart files in full 8-byte precision for
// continuing stopped simulations; the paper defers their (lossless)
// compression to future work. This module produces restart-like
// datasets — double-precision prognostic state with a genuine
// full-precision mantissa tail — so the lossless codecs (fpzip-64 and
// deflate) can be exercised on the deferred case.

#include "climate/ensemble.h"
#include "ncio/dataset.h"

namespace cesm::climate {

/// Build a restart dataset for `member`: the prognostic subset of the
/// catalog (one double-precision variable per named prognostic field)
/// plus the latent model state. `storage`/`codec_spec` select the
/// lossless treatment (Storage::kCodec with e.g. "fpzip-64"-equivalent
/// specs is validated by the caller; lossy codecs would corrupt a
/// checkpoint).
ncio::Dataset make_restart(const EnsembleGenerator& ens, std::uint32_t member,
                           ncio::Storage storage = ncio::Storage::kDeflate);

/// The prognostic variables a restart carries.
std::vector<std::string> restart_variables();

}  // namespace cesm::climate
