//===- vm/ScheduleFile.cpp ------------------------------------------------===//

#include "vm/ScheduleFile.h"

#include "support/StringUtils.h"
#include "vm/Machine.h"

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace svd;
using namespace svd::vm;
using support::formatString;

std::string vm::serializeSchedule(const RecordedSchedule &R) {
  std::string Out = "svd-schedule v1\n";
  Out += formatString("rndseed %llu\n",
                      static_cast<unsigned long long>(R.RndSeed));
  Out += formatString("steps %zu\n", R.Schedule.size());
  // Run-length encode: schedules are long runs of the same thread.
  size_t I = 0;
  bool First = true;
  while (I < R.Schedule.size()) {
    size_t J = I;
    while (J < R.Schedule.size() && R.Schedule[J] == R.Schedule[I])
      ++J;
    if (!First)
      Out += " ";
    First = false;
    size_t Count = J - I;
    if (Count == 1)
      Out += formatString("%u", R.Schedule[I]);
    else
      Out += formatString("%u*%zu", R.Schedule[I], Count);
    I = J;
  }
  Out += "\n";
  return Out;
}

bool vm::parseSchedule(const std::string &Text, RecordedSchedule &Out,
                       std::string &Error) {
  Out = RecordedSchedule();
  std::istringstream In(Text);
  std::string Line;

  if (!std::getline(In, Line) ||
      support::trimString(Line) != "svd-schedule v1") {
    Error = "missing 'svd-schedule v1' header";
    return false;
  }
  unsigned long long Seed = 0;
  if (!std::getline(In, Line) ||
      std::sscanf(Line.c_str(), "rndseed %llu", &Seed) != 1) {
    Error = "missing 'rndseed' line";
    return false;
  }
  Out.RndSeed = Seed;
  size_t Steps = 0;
  if (!std::getline(In, Line) ||
      std::sscanf(Line.c_str(), "steps %zu", &Steps) != 1) {
    Error = "missing 'steps' line";
    return false;
  }
  // Bound the declared count before any allocation keyed on it, by the
  // step budget a replay runs under: --record cannot write a longer
  // schedule. A negative value fed through %zu wraps to something
  // enormous and lands here too.
  constexpr size_t MaxDeclaredSteps = MachineConfig().MaxSteps;
  if (Steps > MaxDeclaredSteps) {
    Error = formatString("declared step count %zu exceeds limit %zu",
                         Steps, MaxDeclaredSteps);
    return false;
  }

  std::string Tok;
  while (In >> Tok) {
    size_t Count = 1;
    size_t Star = Tok.find('*');
    const char *T = Tok.c_str();
    // strtoul alone is too permissive: it accepts signs (so "-1" wraps
    // to a huge thread id) and saturates out-of-range values with no
    // error here. Require a bare digit first and range-check after.
    if (!std::isdigit(static_cast<unsigned char>(*T))) {
      Error = "malformed token '" + Tok + "'";
      return false;
    }
    errno = 0;
    char *End = nullptr;
    unsigned long long Tid = std::strtoull(T, &End, 10);
    bool TidEndsClean =
        Star == std::string::npos ? *End == '\0' : End == T + Star;
    if (End == T || !TidEndsClean) {
      Error = "malformed token '" + Tok + "'";
      return false;
    }
    if (errno == ERANGE || Tid > UINT32_MAX) {
      Error = "thread id out of range in '" + Tok + "'";
      return false;
    }
    if (Star != std::string::npos) {
      const char *C = T + Star + 1;
      errno = 0;
      char *End2 = nullptr;
      unsigned long long N =
          std::isdigit(static_cast<unsigned char>(*C))
              ? std::strtoull(C, &End2, 10)
              : 0;
      if (End2 == C || !End2 || *End2 != '\0' || N == 0 ||
          errno == ERANGE) {
        Error = "malformed run length in '" + Tok + "'";
        return false;
      }
      Count = N;
    }
    // Check against the declared count BEFORE inserting, so a hostile
    // run length ("0*999999999999") cannot drive a giant allocation.
    if (Count > Steps - Out.Schedule.size()) {
      Error = "schedule longer than declared step count";
      return false;
    }
    Out.Schedule.insert(Out.Schedule.end(), Count,
                        static_cast<isa::ThreadId>(Tid));
  }
  if (Out.Schedule.size() != Steps) {
    Error = formatString("schedule has %zu steps, header declares %zu",
                         Out.Schedule.size(), Steps);
    return false;
  }
  return true;
}

bool vm::saveSchedule(const std::string &Path, const RecordedSchedule &R) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << serializeSchedule(R);
  return static_cast<bool>(Out);
}

bool vm::loadSchedule(const std::string &Path, RecordedSchedule &Out,
                      std::string &Error) {
  std::ifstream In(Path);
  if (!In) {
    Error = "cannot open '" + Path + "'";
    return false;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  return parseSchedule(SS.str(), Out, Error);
}
