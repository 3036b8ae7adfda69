//===- analysis/Analysis.h - Umbrella header --------------------*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Convenience umbrella for the static-analysis subsystem: the worklist
/// dataflow framework and the concrete passes (reaching definitions,
/// liveness, static locksets, escape/interval analysis, value flow, the
/// per-program bundle of shared passes, static CU inference, conflict
/// pairs, violation prediction), plus the
/// access-classification table the detectors consume and the lint
/// driver `svd-lint` is built on. The directed-schedule confirmation of
/// predictions lives one layer up, in predict/Confirm.h (it needs the
/// VM).
///
//===----------------------------------------------------------------------===//

#ifndef SVD_ANALYSIS_ANALYSIS_H
#define SVD_ANALYSIS_ANALYSIS_H

#include "analysis/AccessTable.h"
#include "analysis/AtomicProof.h"
#include "analysis/ConflictPairs.h"
#include "analysis/Dataflow.h"
#include "analysis/Escape.h"
#include "analysis/Lint.h"
#include "analysis/Liveness.h"
#include "analysis/Predict.h"
#include "analysis/ProgramPasses.h"
#include "analysis/ReachingDefs.h"
#include "analysis/StaticCu.h"
#include "analysis/StaticLockset.h"
#include "analysis/ValueFlow.h"

#endif // SVD_ANALYSIS_ANALYSIS_H
