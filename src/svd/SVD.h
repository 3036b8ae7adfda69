//===- svd/SVD.h - Umbrella header for the SVD library ----------*- C++ -*-===//
//
// Part of the SVD reproduction of Xu, Bodik & Hill, PLDI 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Convenience umbrella: pulls in the full public API. Downstream users
/// who care about compile time should include the specific headers
/// instead; this header documents what the public surface is.
///
/// \code
///   #include "svd/SVD.h"
///
///   isa::Program P = isa::assembleOrDie(source);  // text assembly
///   vm::Machine M(P);                             // deterministic VM
///   detect::OnlineSvd Svd(P);                     // the paper's core
///   M.addObserver(&Svd);
///   M.run();
///   // Svd.violations(), Svd.cuLog()
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef SVD_SVD_SVD_H
#define SVD_SVD_SVD_H

// Execution substrate.
#include "isa/Assembler.h"
#include "isa/Cfg.h"
#include "isa/Isa.h"
#include "isa/Program.h"
#include "vm/Machine.h"
#include "vm/Observer.h"
#include "vm/ScheduleFile.h"

// Offline analyses.
#include "cu/CuPartition.h"
#include "pdg/Pdg.h"
#include "trace/Trace.h"

// Detectors.
#include "race/Atomizer.h"
#include "race/Frontier.h"
#include "race/HappensBefore.h"
#include "race/Lockset.h"
#include "race/StaleValue.h"
#include "svd/HardwareSvd.h"
#include "svd/OfflineDetector.h"
#include "svd/OnlineSvd.h"
#include "svd/Report.h"
#include "svd/SerializabilityGraph.h"

// Deployment.
#include "ber/Recovery.h"
#include "harness/Harness.h"
#include "workloads/Workloads.h"

#endif // SVD_SVD_SVD_H
