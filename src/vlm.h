// Umbrella header: the library's public API in one include.
//
//   #include "vlm.h"
//
// Pulls in the core measurement scheme (encoder, RSU state, sizing,
// estimators, analysis models) and the deployment-facing utilities
// (intervals, OD matrices, aggregation, calibration, validation).
// Substrates (roadnet, traffic, vcps, sketch) are intentionally not
// included here — pull those headers individually when you simulate.
#pragma once

#include "core/accuracy_model.h"
#include "core/calibration.h"
#include "core/encoder.h"
#include "core/estimator.h"
#include "core/interval.h"
#include "core/multi_period.h"
#include "core/od_matrix.h"
#include "core/privacy_model.h"
#include "core/report_validator.h"
#include "core/rsu_state.h"
#include "core/scheme.h"
#include "core/sizing.h"
#include "core/triple_estimator.h"
#include "core/types.h"
