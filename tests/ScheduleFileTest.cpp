//===- tests/ScheduleFileTest.cpp - Schedule (de)serialization tests -------===//

#include "TestUtil.h"
#include "vm/ScheduleFile.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace svd;
using namespace svd::vm;

TEST(ScheduleFile, RoundTripsEmpty) {
  RecordedSchedule R;
  R.RndSeed = 42;
  std::string Text = serializeSchedule(R);
  RecordedSchedule Out;
  std::string Error;
  ASSERT_TRUE(parseSchedule(Text, Out, Error)) << Error;
  EXPECT_EQ(Out.RndSeed, 42u);
  EXPECT_TRUE(Out.Schedule.empty());
}

TEST(ScheduleFile, RoundTripsRunLengths) {
  RecordedSchedule R;
  R.RndSeed = 7;
  R.Schedule = {0, 0, 0, 1, 2, 2, 0, 1, 1, 1, 1};
  RecordedSchedule Out;
  std::string Error;
  ASSERT_TRUE(parseSchedule(serializeSchedule(R), Out, Error)) << Error;
  EXPECT_EQ(Out.RndSeed, R.RndSeed);
  EXPECT_EQ(Out.Schedule, R.Schedule);
}

TEST(ScheduleFile, EncodingIsCompact) {
  RecordedSchedule R;
  R.Schedule.assign(10000, 3);
  std::string Text = serializeSchedule(R);
  EXPECT_LT(Text.size(), 100u) << "run-length encoding expected";
  EXPECT_NE(Text.find("3*10000"), std::string::npos);
}

TEST(ScheduleFile, RejectsBadHeader) {
  RecordedSchedule Out;
  std::string Error;
  EXPECT_FALSE(parseSchedule("not a schedule\n", Out, Error));
  EXPECT_FALSE(Error.empty());
}

TEST(ScheduleFile, RejectsStepMismatch) {
  RecordedSchedule Out;
  std::string Error;
  EXPECT_FALSE(parseSchedule(
      "svd-schedule v1\nrndseed 1\nsteps 5\n0*3\n", Out, Error));
  EXPECT_NE(Error.find("3"), std::string::npos);
}

TEST(ScheduleFile, RejectsMalformedToken) {
  RecordedSchedule Out;
  std::string Error;
  EXPECT_FALSE(parseSchedule(
      "svd-schedule v1\nrndseed 1\nsteps 1\nx\n", Out, Error));
  EXPECT_FALSE(parseSchedule(
      "svd-schedule v1\nrndseed 1\nsteps 2\n0*zz\n", Out, Error));
}

// Every parse failure names its cause; one test per diagnostic so the
// hardened paths (overflow, signs, trailing garbage, truncated files)
// cannot silently regress to an accept.
TEST(ScheduleFile, RejectsTruncatedFiles) {
  RecordedSchedule Out;
  std::string Error;
  EXPECT_FALSE(parseSchedule("", Out, Error));
  EXPECT_NE(Error.find("header"), std::string::npos);
  EXPECT_FALSE(parseSchedule("svd-schedule v1\n", Out, Error));
  EXPECT_NE(Error.find("rndseed"), std::string::npos);
  EXPECT_FALSE(parseSchedule("svd-schedule v1\nrndseed 1\n", Out, Error));
  EXPECT_NE(Error.find("steps"), std::string::npos);
}

TEST(ScheduleFile, RejectsHugeDeclaredStepCount) {
  RecordedSchedule Out;
  std::string Error;
  // A negative count scanned through %zu wraps to an enormous value;
  // the declared-count bound must catch it before any allocation.
  EXPECT_FALSE(parseSchedule(
      "svd-schedule v1\nrndseed 1\nsteps 18446744073709551615\n", Out,
      Error));
  EXPECT_NE(Error.find("exceeds limit"), std::string::npos);
  EXPECT_FALSE(parseSchedule(
      "svd-schedule v1\nrndseed 1\nsteps -1\n", Out, Error));
  // One step over the replay budget (MachineConfig's default MaxSteps),
  // which is also the longest schedule --record can write.
  EXPECT_FALSE(parseSchedule(
      "svd-schedule v1\nrndseed 1\nsteps 50000001\n", Out, Error));
  EXPECT_NE(Error.find("exceeds limit"), std::string::npos) << Error;
}

TEST(ScheduleFile, RejectsSignedAndGarbageTokens) {
  RecordedSchedule Out;
  std::string Error;
  // Signs must not wrap into huge thread ids via strtoull.
  EXPECT_FALSE(parseSchedule(
      "svd-schedule v1\nrndseed 1\nsteps 1\n-1\n", Out, Error));
  EXPECT_NE(Error.find("malformed token"), std::string::npos);
  EXPECT_FALSE(parseSchedule(
      "svd-schedule v1\nrndseed 1\nsteps 1\n+2\n", Out, Error));
  EXPECT_NE(Error.find("malformed token"), std::string::npos);
  // Trailing garbage after the thread id.
  EXPECT_FALSE(parseSchedule(
      "svd-schedule v1\nrndseed 1\nsteps 1\n0zz\n", Out, Error));
  EXPECT_NE(Error.find("malformed token"), std::string::npos);
  // Garbage between the digits and the '*'.
  EXPECT_FALSE(parseSchedule(
      "svd-schedule v1\nrndseed 1\nsteps 2\n0x*2\n", Out, Error));
  EXPECT_NE(Error.find("malformed token"), std::string::npos);
}

TEST(ScheduleFile, RejectsThreadIdOverflow) {
  RecordedSchedule Out;
  std::string Error;
  // Above UINT32_MAX: must not truncate into a valid-looking id.
  EXPECT_FALSE(parseSchedule(
      "svd-schedule v1\nrndseed 1\nsteps 1\n4294967296\n", Out, Error));
  EXPECT_NE(Error.find("thread id out of range"), std::string::npos);
  // Above UINT64_MAX: strtoull saturates and sets ERANGE.
  EXPECT_FALSE(parseSchedule(
      "svd-schedule v1\nrndseed 1\nsteps 1\n99999999999999999999\n", Out,
      Error));
  EXPECT_NE(Error.find("thread id out of range"), std::string::npos);
}

TEST(ScheduleFile, RejectsMalformedRunLengths) {
  RecordedSchedule Out;
  std::string Error;
  // Empty, signed, zero, garbage-suffixed, and overflowing run lengths.
  for (const char *Body :
       {"0*\n", "0*-2\n", "0*+2\n", "0*0\n", "0*2z\n",
        "0*99999999999999999999\n"}) {
    std::string Text = "svd-schedule v1\nrndseed 1\nsteps 4\n";
    Text += Body;
    EXPECT_FALSE(parseSchedule(Text, Out, Error)) << Body;
    EXPECT_NE(Error.find("malformed run length"), std::string::npos)
        << Body << " -> " << Error;
  }
}

TEST(ScheduleFile, RejectsRunLengthPastDeclaredCount) {
  RecordedSchedule Out;
  std::string Error;
  // A hostile run length must be rejected by comparison against the
  // declared count *before* any insertion drives a giant allocation.
  EXPECT_FALSE(parseSchedule(
      "svd-schedule v1\nrndseed 1\nsteps 4\n0*999999999999\n", Out,
      Error));
  EXPECT_NE(Error.find("longer than declared"), std::string::npos);
  EXPECT_TRUE(Out.Schedule.empty());
}

TEST(ScheduleFile, RejectsTrailingGarbageTokens) {
  RecordedSchedule Out;
  std::string Error;
  EXPECT_FALSE(parseSchedule(
      "svd-schedule v1\nrndseed 1\nsteps 2\n0 1 trailing\n", Out, Error));
  EXPECT_NE(Error.find("malformed token"), std::string::npos);
}

TEST(ScheduleFile, SaveLoadRoundTripsThroughDisk) {
  RecordedSchedule R;
  R.RndSeed = 99;
  R.Schedule = {1, 1, 0, 2, 2, 2};
  std::string Path = testing::TempDir() + "/svd_sched_test.txt";
  ASSERT_TRUE(saveSchedule(Path, R));
  RecordedSchedule Out;
  std::string Error;
  ASSERT_TRUE(loadSchedule(Path, Out, Error)) << Error;
  EXPECT_EQ(Out.RndSeed, R.RndSeed);
  EXPECT_EQ(Out.Schedule, R.Schedule);
  std::remove(Path.c_str());
}

TEST(ScheduleFile, LoadReportsMissingFile) {
  RecordedSchedule Out;
  std::string Error;
  EXPECT_FALSE(loadSchedule("/nonexistent/path/schedule.txt", Out, Error));
  EXPECT_NE(Error.find("cannot open"), std::string::npos);
}

TEST(ScheduleFile, RecordedRunReplaysIdentically) {
  // End-to-end: record a contended run's schedule, serialize, parse,
  // replay — the executions must match bit-for-bit.
  isa::Program P = isa::assembleOrDie(R"(
.global x
.lock m
.thread t x3
  li r5, 15
loop:
  lock @m
  ld r1, [@x]
  addi r1, r1, 1
  st r1, [@x]
  unlock @m
  addi r5, r5, -1
  bnez r5, loop
  halt
)");
  vm::MachineConfig MC;
  MC.SchedSeed = 31;
  vm::Machine Original(P, MC);
  Original.run();

  RecordedSchedule R;
  R.RndSeed = MC.RndSeed;
  R.Schedule = Original.schedule();
  RecordedSchedule Parsed;
  std::string Error;
  ASSERT_TRUE(parseSchedule(serializeSchedule(R), Parsed, Error)) << Error;

  vm::MachineConfig MC2;
  MC2.SchedSeed = 777; // irrelevant under replay
  MC2.RndSeed = Parsed.RndSeed;
  vm::Machine Replayed(P, MC2);
  Replayed.setReplaySchedule(Parsed.Schedule);
  Replayed.run();
  EXPECT_EQ(Replayed.steps(), Original.steps());
  EXPECT_EQ(Replayed.readMem(P.addressOf("x")),
            Original.readMem(P.addressOf("x")));
}

TEST(ScheduleFile, UnrunnableThreadEndsReplayOnBothEngines) {
  // A schedule file is untrusted input. One that names a thread which
  // does not exist, is blocked, or has halted ends the run with a
  // classified stop and a diagnostic naming the step and the thread —
  // never an abort — on both engines.
  isa::Program P = isa::assembleOrDie(R"(
.global counter
.lock ctr_lock
.thread worker x2
  li r5, 8
loop:
  lock @ctr_lock
  ld r1, [@counter]
  addi r1, r1, 1
  st r1, [@counter]
  unlock @ctr_lock
  addi r5, r5, -1
  bnez r5, loop
  halt
)");
  struct Case {
    const char *Text;
    const char *Want;
  } Cases[] = {
      {"svd-schedule v1\nrndseed 2\nsteps 3\n0 7 0\n",
       "replay diverged at step 1: the schedule names thread 7, which "
       "does not exist"},
      {"svd-schedule v1\nrndseed 2\nsteps 5\n0*2 1*3\n",
       "replay diverged at step 4: the schedule names thread 1, which is "
       "blocked"},
      {"svd-schedule v1\nrndseed 2\nsteps 200\n0*200\n",
       "replay diverged at step 58: the schedule names thread 0, which "
       "has halted"},
  };
  for (const Case &C : Cases) {
    RecordedSchedule R;
    std::string Error;
    ASSERT_TRUE(parseSchedule(C.Text, R, Error)) << Error;
    for (bool Translate : {false, true}) {
      SCOPED_TRACE(std::string(Translate ? "translated: " : "interpreter: ") +
                   C.Text);
      vm::MachineConfig MC;
      MC.RndSeed = R.RndSeed;
      MC.Translate = Translate;
      vm::Machine M(P, MC);
      M.setReplaySchedule(R.Schedule);
      EXPECT_EQ(M.run(), vm::StopReason::ReplayDiverged);
      EXPECT_EQ(M.stopDiagnostic(), C.Want);
    }
  }
}

TEST(ScheduleFile, DeadlockedRecordingReplaysAsDeadlock) {
  // lock_order_cycle's AB-BA shape deadlocks under seed 1. Its recording
  // runs out at the decision where the recorder found no thread ready,
  // and the replay stops there with the same verdict; a recording cut
  // while a thread can still run stops as Paused.
  std::ifstream In(SVD_EXAMPLES_ASM_DIR "/lock_order_cycle.asm");
  std::ostringstream SS;
  SS << In.rdbuf();
  isa::Program P = isa::assembleOrDie(SS.str());
  vm::MachineConfig MC;
  vm::Machine Recorder(P, MC);
  ASSERT_EQ(Recorder.run(), vm::StopReason::Deadlock);

  RecordedSchedule R;
  R.RndSeed = MC.RndSeed;
  R.Schedule = Recorder.schedule();
  RecordedSchedule Parsed;
  std::string Error;
  ASSERT_TRUE(parseSchedule(serializeSchedule(R), Parsed, Error)) << Error;
  ASSERT_FALSE(Parsed.Schedule.empty());
  for (bool Translate : {false, true}) {
    SCOPED_TRACE(Translate ? "translated" : "interpreter");
    vm::MachineConfig RC;
    RC.RndSeed = Parsed.RndSeed;
    RC.Translate = Translate;
    vm::Machine Replayed(P, RC);
    Replayed.setReplaySchedule(Parsed.Schedule);
    EXPECT_EQ(Replayed.run(), vm::StopReason::Deadlock);
    EXPECT_EQ(Replayed.steps(), Recorder.steps());
    EXPECT_EQ(Replayed.schedule(), Recorder.schedule());

    vm::Machine Cut(P, RC);
    Cut.setReplaySchedule({Parsed.Schedule.front()});
    EXPECT_EQ(Cut.run(), vm::StopReason::Paused);
    EXPECT_EQ(Cut.steps(), 1u);
  }
}
