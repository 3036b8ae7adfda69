//===- isa/Assembler.cpp --------------------------------------------------===//

#include "isa/Assembler.h"

#include "support/Error.h"
#include "support/StringUtils.h"

#include <cassert>
#include <cctype>
#include <cstdio>
#include <map>
#include <optional>

using namespace svd;
using namespace svd::isa;
using support::formatString;

namespace {

/// A memory operand before symbol/layout resolution.
struct MemRef {
  Reg Base = ZeroReg;
  std::string Sym; ///< empty if purely register-relative
  int64_t Off = 0;
};

/// A parsed-but-unresolved instruction. Branch targets and data symbols
/// are still symbolic; they are resolved per thread replica after layout.
struct PendingInstr {
  Opcode Op = Opcode::Nop;
  Reg Rd = 0;
  Reg Ra = 0;
  Reg Rb = 0;
  int64_t Imm = 0;
  std::string LabelRef;  ///< branch target label, if any
  std::string ProcRef;   ///< call target proc name, if any
  MemRef Mem;            ///< memory operand, if any
  bool HasMem = false;
  std::string MutexRef;  ///< lock/unlock mutex name, if any
  int32_t MessageId = -1;
  uint32_t Line = 0;
};

/// One `.thread` section as parsed.
struct PendingThread {
  std::string Name;
  uint32_t Replicas = 1;
  std::vector<PendingInstr> Code;
  std::map<std::string, size_t> Labels; ///< label -> instruction index
  uint32_t Line = 0;
};

/// One `.proc` section as parsed. Procs are top-level and shared: each
/// thread replica that (transitively) calls one gets a private copy
/// materialized after its main body. Labels are proc-local.
struct PendingProc {
  std::string Name;
  std::vector<PendingInstr> Code;
  std::map<std::string, size_t> Labels; ///< label -> instruction index
  uint32_t Line = 0;
};

/// Declared-but-unplaced data symbol.
struct PendingSymbol {
  std::string Name;
  uint32_t Size = 1;
  bool IsThreadLocal = false;
  uint32_t Line = 0;
};

class Parser {
public:
  Parser(const std::string &Source, std::vector<AsmError> &Errors)
      : Source(Source), Errors(Errors) {}

  bool run(Program &Out);

private:
  // --- line-level parsing ---
  void parseLine(const std::string &Line);
  void parseDirective(const std::string &Line);
  void parseStatement(std::string Line);
  void parseInstruction(const std::string &Mnemonic,
                        const std::vector<std::string> &Ops);

  // --- operand parsing ---
  std::optional<Reg> parseReg(const std::string &Tok);
  std::optional<int64_t> parseImm(const std::string &Tok);
  std::optional<MemRef> parseMem(const std::string &Tok);
  // parseInstruction checks the operand count against the form first,
  // so these only see tokens that are present.
  Reg expectReg(const std::string &Tok);
  int64_t expectImm(const std::string &Tok);
  std::optional<MemRef> expectMem(const std::string &Tok);

  // --- resolution ---
  bool layout(Program &Out);
  bool resolveThread(const PendingThread &PT, uint32_t Replica,
                     ThreadId Tid, const Program &Prog, ThreadCode &Out);
  bool reachableProcs(const PendingThread &PT, std::vector<size_t> &Out);
  bool resolveInstr(const PendingInstr &P,
                    const std::map<std::string, size_t> &Labels,
                    uint32_t LabelBase,
                    const std::map<std::string, uint32_t> &ProcEntries,
                    ThreadId Tid, const Program &Prog, Instruction &I);

  void error(const std::string &Msg) {
    Errors.push_back({CurLine, Msg});
  }

  const std::string &Source;
  std::vector<AsmError> &Errors;
  uint32_t CurLine = 0;

  std::vector<PendingSymbol> Symbols;
  std::vector<std::string> Mutexes;
  std::vector<std::string> Messages;
  std::vector<PendingThread> ThreadSections;
  std::vector<PendingProc> ProcSections;
  PendingThread *CurThread = nullptr;
  PendingProc *CurProc = nullptr;
};

bool isIdentChar(char C) {
  return std::isalnum(static_cast<unsigned char>(C)) || C == '_' || C == '.';
}

bool isIdentifier(const std::string &S) {
  if (S.empty() || std::isdigit(static_cast<unsigned char>(S[0])))
    return false;
  for (char C : S)
    if (!isIdentChar(C))
      return false;
  return true;
}

/// Strips a trailing comment that begins with ';' or '#' outside quotes.
std::string stripComment(const std::string &Line) {
  bool InString = false;
  for (size_t I = 0; I < Line.size(); ++I) {
    char C = Line[I];
    if (C == '"')
      InString = !InString;
    else if (!InString && (C == ';' || C == '#'))
      return Line.substr(0, I);
  }
  return Line;
}

/// Splits an operand list on commas that are outside quotes/brackets.
std::vector<std::string> splitOperands(const std::string &S) {
  std::vector<std::string> Ops;
  std::string Cur;
  bool InString = false;
  int Bracket = 0;
  for (char C : S) {
    if (C == '"')
      InString = !InString;
    if (!InString) {
      if (C == '[')
        ++Bracket;
      else if (C == ']')
        --Bracket;
    }
    if (C == ',' && !InString && Bracket == 0) {
      Ops.push_back(support::trimString(Cur));
      Cur.clear();
      continue;
    }
    Cur += C;
  }
  std::string Last = support::trimString(Cur);
  if (!Last.empty() || !Ops.empty())
    Ops.push_back(Last);
  return Ops;
}

bool Parser::run(Program &Out) {
  std::vector<std::string> Lines = support::splitString(Source, '\n');
  for (size_t I = 0; I < Lines.size(); ++I) {
    CurLine = static_cast<uint32_t>(I + 1);
    parseLine(Lines[I]);
  }
  if (!Errors.empty())
    return false;
  if (ThreadSections.empty()) {
    CurLine = 0;
    error("program declares no .thread section");
    return false;
  }
  return layout(Out);
}

void Parser::parseLine(const std::string &RawLine) {
  std::string Line = support::trimString(stripComment(RawLine));
  if (Line.empty())
    return;
  if (Line[0] == '.') {
    parseDirective(Line);
    return;
  }
  parseStatement(Line);
}

void Parser::parseDirective(const std::string &Line) {
  std::vector<std::string> Toks;
  {
    std::string Cur;
    for (char C : Line) {
      if (std::isspace(static_cast<unsigned char>(C))) {
        if (!Cur.empty())
          Toks.push_back(Cur);
        Cur.clear();
      } else {
        Cur += C;
      }
    }
    if (!Cur.empty())
      Toks.push_back(Cur);
  }
  const std::string &Kind = Toks[0];

  if (Kind == ".global" || Kind == ".local") {
    if (Toks.size() < 2 || Toks.size() > 3 || !isIdentifier(Toks[1])) {
      error("expected '" + Kind + " NAME [SIZE]'");
      return;
    }
    uint32_t Size = 1;
    if (Toks.size() == 3) {
      std::optional<int64_t> V = parseImm(Toks[2]);
      if (!V || *V <= 0 || *V > (1 << 24)) {
        error("invalid size '" + Toks[2] + "'");
        return;
      }
      Size = static_cast<uint32_t>(*V);
    }
    for (const PendingSymbol &S : Symbols)
      if (S.Name == Toks[1]) {
        error("redefinition of data symbol '" + Toks[1] + "'");
        return;
      }
    Symbols.push_back({Toks[1], Size, Kind == ".local", CurLine});
    return;
  }

  if (Kind == ".lock") {
    if (Toks.size() != 2 || !isIdentifier(Toks[1])) {
      error("expected '.lock NAME'");
      return;
    }
    for (const std::string &M : Mutexes)
      if (M == Toks[1]) {
        error("redefinition of mutex '" + Toks[1] + "'");
        return;
      }
    Mutexes.push_back(Toks[1]);
    return;
  }

  if (Kind == ".thread") {
    if (Toks.size() < 2 || Toks.size() > 3 || !isIdentifier(Toks[1])) {
      error("expected '.thread NAME [xN]'");
      return;
    }
    uint32_t Replicas = 1;
    if (Toks.size() == 3) {
      const std::string &R = Toks[2];
      if (R.size() < 2 || (R[0] != 'x' && R[0] != 'X')) {
        error("expected replica count of the form xN");
        return;
      }
      std::optional<int64_t> V = parseImm(R.substr(1));
      if (!V || *V <= 0 || *V > 1024) {
        error("invalid replica count '" + R + "'");
        return;
      }
      Replicas = static_cast<uint32_t>(*V);
    }
    ThreadSections.push_back(PendingThread());
    CurThread = &ThreadSections.back();
    CurThread->Name = Toks[1];
    CurThread->Replicas = Replicas;
    CurThread->Line = CurLine;
    CurProc = nullptr;
    return;
  }

  if (Kind == ".proc") {
    if (Toks.size() != 2 || !isIdentifier(Toks[1])) {
      error("expected '.proc NAME'");
      return;
    }
    for (const PendingProc &P : ProcSections)
      if (P.Name == Toks[1]) {
        error("redefinition of proc '" + Toks[1] + "'");
        return;
      }
    ProcSections.push_back(PendingProc());
    CurProc = &ProcSections.back();
    CurProc->Name = Toks[1];
    CurProc->Line = CurLine;
    CurThread = nullptr;
    return;
  }

  if (Kind == ".endproc") {
    if (Toks.size() != 1) {
      error("expected '.endproc'");
      return;
    }
    if (!CurProc) {
      error(".endproc outside of a .proc section");
      return;
    }
    CurProc = nullptr;
    return;
  }

  error("unknown directive '" + Kind + "'");
}

void Parser::parseStatement(std::string Line) {
  // Peel off any leading labels ("name:").
  for (;;) {
    size_t Colon = Line.find(':');
    if (Colon == std::string::npos)
      break;
    std::string Head = support::trimString(Line.substr(0, Colon));
    if (!isIdentifier(Head))
      break;
    if (!CurThread && !CurProc) {
      error("label outside of a .thread or .proc section");
      return;
    }
    auto &Labels = CurProc ? CurProc->Labels : CurThread->Labels;
    size_t Here = CurProc ? CurProc->Code.size() : CurThread->Code.size();
    if (Labels.count(Head)) {
      error("redefinition of label '" + Head + "'");
      return;
    }
    Labels[Head] = Here;
    Line = support::trimString(Line.substr(Colon + 1));
    if (Line.empty())
      return;
  }

  if (!CurThread && !CurProc) {
    error("instruction outside of a .thread or .proc section");
    return;
  }

  size_t SpacePos = 0;
  while (SpacePos < Line.size() &&
         !std::isspace(static_cast<unsigned char>(Line[SpacePos])))
    ++SpacePos;
  std::string Mnemonic = Line.substr(0, SpacePos);
  std::string Rest = support::trimString(Line.substr(SpacePos));
  std::vector<std::string> Ops =
      Rest.empty() ? std::vector<std::string>() : splitOperands(Rest);
  parseInstruction(Mnemonic, Ops);
}

std::optional<Reg> Parser::parseReg(const std::string &Tok) {
  if (Tok.size() < 2 || (Tok[0] != 'r' && Tok[0] != 'R'))
    return std::nullopt;
  for (size_t I = 1; I < Tok.size(); ++I)
    if (!std::isdigit(static_cast<unsigned char>(Tok[I])))
      return std::nullopt;
  long V = std::strtol(Tok.c_str() + 1, nullptr, 10);
  if (V < 0 || V >= static_cast<long>(NumRegs))
    return std::nullopt;
  return static_cast<Reg>(V);
}

std::optional<int64_t> Parser::parseImm(const std::string &Tok) {
  if (Tok.empty())
    return std::nullopt;
  const char *Begin = Tok.c_str();
  char *End = nullptr;
  long long V = std::strtoll(Begin, &End, 0);
  if (End != Begin + Tok.size())
    return std::nullopt;
  return static_cast<int64_t>(V);
}

std::optional<MemRef> Parser::parseMem(const std::string &Tok) {
  if (Tok.size() < 3 || Tok.front() != '[' || Tok.back() != ']')
    return std::nullopt;
  std::string Inner = Tok.substr(1, Tok.size() - 2);
  MemRef M;
  bool SawSym = false;
  bool SawBase = false;
  for (const std::string &RawPart : support::splitString(Inner, '+')) {
    std::string Part = support::trimString(RawPart);
    if (Part.empty())
      return std::nullopt;
    if (Part[0] == '@') {
      std::string Sym = Part.substr(1);
      if (!isIdentifier(Sym) || SawSym)
        return std::nullopt;
      M.Sym = Sym;
      SawSym = true;
      continue;
    }
    if (std::optional<Reg> R = parseReg(Part)) {
      if (SawBase)
        return std::nullopt;
      M.Base = *R;
      SawBase = true;
      continue;
    }
    if (std::optional<int64_t> V = parseImm(Part)) {
      M.Off += *V;
      continue;
    }
    return std::nullopt;
  }
  return M;
}

Reg Parser::expectReg(const std::string &Tok) {
  if (std::optional<Reg> R = parseReg(Tok))
    return *R;
  error("expected register, got '" + Tok + "'");
  return 0;
}

int64_t Parser::expectImm(const std::string &Tok) {
  if (std::optional<int64_t> V = parseImm(Tok))
    return *V;
  error("expected immediate, got '" + Tok + "'");
  return 0;
}

std::optional<MemRef> Parser::expectMem(const std::string &Tok) {
  std::optional<MemRef> M = parseMem(Tok);
  if (!M)
    error("expected memory operand like [r1+@sym], got '" + Tok + "'");
  return M;
}

void Parser::parseInstruction(const std::string &Mnemonic,
                              const std::vector<std::string> &Ops) {
  const OpcodeInfo *Info = nullptr;
  for (const OpcodeInfo &Row : OpcodeTable)
    if (Mnemonic == Row.Name) {
      Info = &Row;
      break;
    }
  if (!Info) {
    error("unknown mnemonic '" + Mnemonic + "'");
    return;
  }

  // A trailing message is optional, and so is rnd's bound.
  OperandList Slots = operandsOf(Info->Form);
  size_t Max = Slots.Size;
  size_t Min = Max;
  if (Info->Op == Opcode::Rnd || Slots.has(Operand::Msg))
    --Min;
  if (Ops.size() < Min || Ops.size() > Max) {
    if (Min == Max)
      error(formatString("'%s' expects %zu operand(s), got %zu", Info->Name,
                         Max, Ops.size()));
    else
      error(formatString("'%s' expects %zu or %zu operands", Info->Name, Min,
                         Max));
    return;
  }

  PendingInstr P;
  P.Op = Info->Op;
  P.Line = CurLine;
  for (size_t K = 0; K < Max; ++K) {
    switch (Slots.Slots[K]) {
    case Operand::Rd:
      P.Rd = expectReg(Ops[K]);
      break;
    case Operand::Ra:
      P.Ra = expectReg(Ops[K]);
      break;
    case Operand::Rb:
      P.Rb = expectReg(Ops[K]);
      break;
    case Operand::Imm:
      if (K < Ops.size())
        P.Imm = expectImm(Ops[K]);
      break;
    case Operand::Mem:
    case Operand::AbsMem: {
      std::optional<MemRef> M = expectMem(Ops[K]);
      if (!M)
        break;
      P.Mem = *M;
      P.HasMem = true;
      // Cas keeps Ra for its expected value, so its address is absolute.
      if (Slots.Slots[K] == Operand::AbsMem && P.Mem.Base != ZeroReg) {
        error(formatString(
            "'%s' requires an absolute address (no base register)",
            Info->Name));
        return;
      }
      break;
    }
    case Operand::Label:
      if (!isIdentifier(Ops[K])) {
        error("expected label, got '" + Ops[K] + "'");
        return;
      }
      P.LabelRef = Ops[K];
      break;
    case Operand::Proc:
      if (!isIdentifier(Ops[K])) {
        error("expected proc name, got '" + Ops[K] + "'");
        return;
      }
      P.ProcRef = Ops[K];
      break;
    case Operand::Mutex: {
      std::string Name = Ops[K];
      if (!Name.empty() && Name[0] == '@')
        Name = Name.substr(1);
      if (!isIdentifier(Name)) {
        error("expected mutex name, got '" + Ops[K] + "'");
        return;
      }
      P.MutexRef = Name;
      break;
    }
    case Operand::Msg: {
      std::string Msg = "assertion failed";
      if (K < Ops.size()) {
        const std::string &Tok = Ops[K];
        if (Tok.size() < 2 || Tok.front() != '"' || Tok.back() != '"') {
          error("expected quoted message, got '" + Tok + "'");
          return;
        }
        Msg = Tok.substr(1, Tok.size() - 2);
      }
      P.MessageId = static_cast<int32_t>(Messages.size());
      Messages.push_back(Msg);
      break;
    }
    }
  }
  if (P.Op == Opcode::Ret && !CurProc) {
    // A main-body Ret would pop an empty call stack at run time; reject
    // it statically so the mistake surfaces at assembly.
    error("'ret' outside of a .proc section");
    return;
  }
  (CurProc ? CurProc->Code : CurThread->Code).push_back(P);
}

bool Parser::layout(Program &Out) {
  Out = Program();
  Out.Mutexes = Mutexes;
  Out.Messages = Messages;

  uint32_t NumThreads = 0;
  for (const PendingThread &PT : ThreadSections)
    NumThreads += PT.Replicas;

  // Layout: shared globals first, then thread-local regions.
  Addr Next = 0;
  for (const PendingSymbol &PS : Symbols) {
    if (PS.IsThreadLocal)
      continue;
    Out.Symbols.push_back({PS.Name, Next, PS.Size, false});
    Next += PS.Size;
  }
  for (const PendingSymbol &PS : Symbols) {
    if (!PS.IsThreadLocal)
      continue;
    Out.Symbols.push_back({PS.Name, Next, PS.Size, true});
    Next += PS.Size * NumThreads;
  }
  Out.MemoryWords = Next;

  // Resolve each replica.
  ThreadId Tid = 0;
  for (const PendingThread &PT : ThreadSections) {
    for (uint32_t R = 0; R < PT.Replicas; ++R, ++Tid) {
      ThreadCode TC;
      TC.Name =
          PT.Replicas == 1 ? PT.Name : formatString("%s.%u", PT.Name.c_str(), R);
      if (!resolveThread(PT, R, Tid, Out, TC))
        return false;
      Out.Threads.push_back(std::move(TC));
    }
  }

  std::string Problem = Out.validate();
  if (!Problem.empty()) {
    CurLine = 0;
    error("validation failed: " + Problem);
    return false;
  }
  return true;
}

/// Resolves one pending instruction against the given label scope (thread
/// main body or one proc body, whose first instruction sits at
/// \p LabelBase) and the per-replica proc entry table.
bool Parser::resolveInstr(const PendingInstr &P,
                          const std::map<std::string, size_t> &Labels,
                          uint32_t LabelBase,
                          const std::map<std::string, uint32_t> &ProcEntries,
                          ThreadId Tid, const Program &Prog,
                          Instruction &I) {
  CurLine = P.Line;
  I.Op = P.Op;
  I.Rd = P.Rd;
  I.Ra = P.Ra;
  I.Rb = P.Rb;
  I.Imm = P.Imm;
  I.Line = P.Line;

  if (!P.LabelRef.empty()) {
    auto It = Labels.find(P.LabelRef);
    if (It == Labels.end()) {
      error("undefined label '" + P.LabelRef + "'");
      return false;
    }
    I.Imm = static_cast<Word>(LabelBase + It->second);
  }
  if (!P.ProcRef.empty()) {
    auto It = ProcEntries.find(P.ProcRef);
    if (It == ProcEntries.end()) {
      error("call to undefined proc '" + P.ProcRef + "'");
      return false;
    }
    I.Imm = static_cast<Word>(It->second);
  }
  if (P.HasMem) {
    // Cas keeps Ra as the expected-value register; its address is
    // always absolute.
    if (P.Op != Opcode::Cas)
      I.Ra = P.Mem.Base;
    int64_t Address = P.Mem.Off;
    if (!P.Mem.Sym.empty()) {
      const DataSymbol *S = Prog.findSymbol(P.Mem.Sym);
      if (!S) {
        error("undefined data symbol '" + P.Mem.Sym + "'");
        return false;
      }
      Address += S->Base;
      if (S->IsThreadLocal)
        Address += static_cast<int64_t>(Tid) * S->Size;
    }
    I.Imm = Address;
  }
  if (!P.MutexRef.empty()) {
    std::optional<uint32_t> M = Prog.findMutex(P.MutexRef);
    if (!M) {
      error("undefined mutex '" + P.MutexRef + "'");
      return false;
    }
    I.Imm = *M;
  }
  if (P.MessageId >= 0)
    I.Imm = P.MessageId;
  return true;
}

/// Collects the indices of every proc \p PT (transitively) calls, in
/// declaration order — the order their copies are materialized in.
bool Parser::reachableProcs(const PendingThread &PT,
                            std::vector<size_t> &Out) {
  std::vector<bool> Seen(ProcSections.size(), false);
  // Worklist of proc indices whose bodies still need scanning; seeded
  // from the thread's main body.
  std::vector<const std::vector<PendingInstr> *> Work = {&PT.Code};
  while (!Work.empty()) {
    const std::vector<PendingInstr> *Code = Work.back();
    Work.pop_back();
    for (const PendingInstr &P : *Code) {
      if (P.ProcRef.empty())
        continue;
      size_t Idx = ProcSections.size();
      for (size_t I = 0; I < ProcSections.size(); ++I)
        if (ProcSections[I].Name == P.ProcRef) {
          Idx = I;
          break;
        }
      if (Idx == ProcSections.size()) {
        CurLine = P.Line;
        error("call to undefined proc '" + P.ProcRef + "'");
        return false;
      }
      if (!Seen[Idx]) {
        Seen[Idx] = true;
        Work.push_back(&ProcSections[Idx].Code);
      }
    }
  }
  for (size_t I = 0; I < ProcSections.size(); ++I)
    if (Seen[I])
      Out.push_back(I);
  return true;
}

bool Parser::resolveThread(const PendingThread &PT, uint32_t Replica,
                           ThreadId Tid, const Program &Prog,
                           ThreadCode &Out) {
  (void)Replica;
  std::vector<size_t> Reachable;
  if (!reachableProcs(PT, Reachable))
    return false;

  // Layout: main body (plus auto-halt unless it already ends in an
  // unconditional terminator), then one copy of each reachable proc in
  // declaration order (plus auto-ret under the same rule).
  auto NeedsAutoHalt = [](const std::vector<PendingInstr> &Code) {
    return Code.empty() || (Code.back().Op != Opcode::Halt &&
                            Code.back().Op != Opcode::Jmp);
  };
  auto NeedsAutoRet = [](const std::vector<PendingInstr> &Code) {
    return Code.empty() || (Code.back().Op != Opcode::Ret &&
                            Code.back().Op != Opcode::Halt &&
                            Code.back().Op != Opcode::Jmp);
  };
  uint32_t MainLen = static_cast<uint32_t>(PT.Code.size()) +
                     (NeedsAutoHalt(PT.Code) ? 1 : 0);
  std::map<std::string, uint32_t> ProcEntries;
  uint32_t Next = MainLen;
  for (size_t Idx : Reachable) {
    const PendingProc &PP = ProcSections[Idx];
    ProcEntries[PP.Name] = Next;
    uint32_t Len = static_cast<uint32_t>(PP.Code.size()) +
                   (NeedsAutoRet(PP.Code) ? 1 : 0);
    Out.Procs.push_back({PP.Name, Next, Next + Len});
    Next += Len;
  }

  for (const PendingInstr &P : PT.Code) {
    Instruction I;
    if (!resolveInstr(P, PT.Labels, 0, ProcEntries, Tid, Prog, I))
      return false;
    Out.Code.push_back(I);
  }
  if (NeedsAutoHalt(PT.Code)) {
    // Make falling off the end explicit and uniform.
    Instruction H;
    H.Op = Opcode::Halt;
    Out.Code.push_back(H);
  }
  for (size_t Idx : Reachable) {
    const PendingProc &PP = ProcSections[Idx];
    uint32_t Entry = ProcEntries[PP.Name];
    for (const PendingInstr &P : PP.Code) {
      Instruction I;
      if (!resolveInstr(P, PP.Labels, Entry, ProcEntries, Tid, Prog, I))
        return false;
      Out.Code.push_back(I);
    }
    if (NeedsAutoRet(PP.Code)) {
      // Falling off a proc's end returns to the caller.
      Instruction R;
      R.Op = Opcode::Ret;
      R.Line = PP.Line;
      Out.Code.push_back(R);
    }
  }
  return true;
}

} // namespace

bool isa::assembleProgram(const std::string &Source, Program &Out,
                          std::vector<AsmError> &Errors) {
  Parser P(Source, Errors);
  return P.run(Out);
}

Program isa::assembleOrDie(const std::string &Source) {
  Program Prog;
  std::vector<AsmError> Errors;
  if (assembleProgram(Source, Prog, Errors))
    return Prog;
  for (const AsmError &E : Errors)
    std::fprintf(stderr, "asm:%u: error: %s\n", E.Line, E.Message.c_str());
  support::fatalError("assembly failed");
}
