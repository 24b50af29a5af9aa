//===- perfbench/perfbench.cpp - end-to-end benchmark harness -------------===//
//
// One process runs one workload: Baker source -> driver::compile ->
// driver::makeSimulator -> ixp::Simulator::run on a simulated IXP2400,
// with every compiled program's output checked against the reference
// interpreter (apps::makeAppInterp). Only public entry points are used.
//
//   perfbench --workload <ladder-sweep|forward-soak|stateful-adversarial>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <file>] [--corrupt-reference]
//
// A run is: set-up (traffic traces + interpreter reference outputs), one
// warm-up pass over the workload's cells, then measured passes, each
// after another set-up, until --seconds have elapsed, then one-off guards
// (paper anchor, observer proof, FastForward vs Sequential). Every pass
// runs the same cells; simulated results must repeat bit for bit from
// pass to pass.
//
// Between cells the harness times a fixed host-speed probe and reports
// end-to-end host times scaled to a reference host speed (see
// runProbe).
//
// All simulation is ExecMode::FastForward on the calling thread: one
// closed-loop caller, no helper threads. The simulated chip runs under
// infinite offered load (the trace is cycled), warms up, and is then
// measured over a fixed window of cycles.
//
// With --trace 1 the measured passes alternate untraced and traced. A
// traced pass records spans around every public call and attaches an
// obs::CompileObserver, whose pass records become child spans of the
// compile span. Per-layer self times are span durations minus their
// children; the remainder no layer claims is reported, not hidden.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "driver/Compiler.h"
#include "driver/Feedback.h"
#include "interp/Interp.h"
#include "ixp/Simulator.h"
#include "ixp/Telemetry.h"
#include "obs/OptReport.h"
#include "support/Histogram.h"
#include "traffic/Traffic.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <memory_resource>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

using namespace sl;

namespace {

//===----------------------------------------------------------------------===//
// Clock and small helpers
//===----------------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;
const Clock::time_point ProcessStart = Clock::now();

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              ProcessStart)
      .count();
}

uint64_t mix64(uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

/// Seed of one generated input: the workload seed, the app and a purpose
/// tag, so every trace of a run is distinct but fixed by --seed.
uint64_t subSeed(uint64_t Seed, unsigned App, unsigned Purpose) {
  return mix64(Seed ^ mix64((uint64_t(App) << 8) | Purpose));
}

uint64_t fnv1a(const void *Data, size_t N, uint64_t H) {
  const auto *P = static_cast<const uint8_t *>(Data);
  for (size_t I = 0; I != N; ++I)
    H = (H ^ P[I]) * 0x100000001B3ull;
  return H;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Nearest-rank percentile (the sample at rank ceil(Q * n)).
double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * double(V.size())));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// In-memory span log. Spans nest strictly (children are disjoint and lie
/// inside their parent), so the self times of a subtree sum exactly to
/// the root's duration.
class SpanLog {
public:
  struct Span {
    std::string Name;
    int64_t Start = 0, End = 0;
    int Parent = -1;
    unsigned Cell = 0;
    int64_t ChildNs = 0; ///< Duration covered by direct children.
  };

  bool On = false;

  int open(const char *Name, unsigned Cell) {
    if (!On)
      return -1;
    Spans.push_back({Name, nowNs(), 0, Cur, Cell, 0});
    Cur = int(Spans.size()) - 1;
    return Cur;
  }
  void close(int Id) {
    if (Id < 0)
      return;
    Span &S = Spans[Id];
    S.End = nowNs();
    Cur = S.Parent;
    if (Cur >= 0)
      Spans[Cur].ChildNs += S.End - S.Start;
  }
  /// Adds a finished child of the open span, clipped to start after the
  /// parent's previous child and to end no later than now, so children
  /// stay disjoint and inside the parent.
  void addClosedChild(std::string Name, int64_t Start, int64_t End,
                      unsigned Cell) {
    if (!On || Cur < 0)
      return;
    int64_t Floor = Spans[Cur].Start;
    if (LastChildOf == Cur)
      Floor = std::max(Floor, LastChildEnd);
    int64_t Now = nowNs();
    Start = std::clamp(Start, Floor, Now);
    End = std::clamp(End, Start, Now);
    Spans.push_back({std::move(Name), Start, End, Cur, Cell, 0});
    Spans[Cur].ChildNs += End - Start;
    LastChildOf = Cur;
    LastChildEnd = End;
  }

  size_t size() const { return Spans.size(); }
  const Span &operator[](size_t I) const { return Spans[I]; }

  void writeJson(std::ostream &OS) const {
    OS << "[\n";
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      OS << "{\"id\":" << I << ",\"name\":\"" << S.Name
         << "\",\"start_ns\":" << S.Start << ",\"end_ns\":" << S.End
         << ",\"parent\":" << S.Parent << ",\"cell\":" << S.Cell << "}"
         << (I + 1 == Spans.size() ? "\n" : ",\n");
    }
    OS << "]\n";
  }

private:
  std::vector<Span> Spans;
  int Cur = -1;
  int LastChildOf = -2;
  int64_t LastChildEnd = 0;
};

SpanLog Spans;

/// Times a region always (the untraced run needs check and compile
/// durations too) and records it as a span when tracing is on.
class Timed {
public:
  Timed(const char *Name, unsigned Cell)
      : Id(Spans.open(Name, Cell)), Start(nowNs()) {}
  ~Timed() { stop(); }
  Timed(const Timed &) = delete;
  Timed &operator=(const Timed &) = delete;
  /// Ends the region; returns its duration in ns.
  int64_t stop() {
    if (!Stopped) {
      Stopped = true;
      Dur = nowNs() - Start;
      Spans.close(Id);
    }
    return Dur;
  }

private:
  int Id;
  int64_t Start;
  int64_t Dur = 0;
  bool Stopped = false;
};

//===----------------------------------------------------------------------===//
// Host-speed probe
//===----------------------------------------------------------------------===//

/// A shared cloud host drifts in speed by 10-30% over tens of seconds,
/// mostly through memory contention from other tenants, and the compiler
/// and the simulator drift with it. Longer runs do not average that out.
/// So the harness times a fixed probe of its own between cells: hash-table
/// inserts and lookups over about 1 MB, cache-miss-heavy like the compiler,
/// and no repository code. The table fits in a core's private cache and
/// drifts about half as much as a compile, so the scaling under-corrects;
/// a table that spills out of it over-corrected on some workloads, which
/// is worse than no scaling. End-to-end host times are reported
/// scaled by ProbeRefMs / (median probe time of the run): milliseconds at
/// the host speed where the probe takes ProbeRefMs.
constexpr double ProbeRefMs = 2.0;
constexpr unsigned ProbeEntries = 20'000;
/// Minimum host time between two probes (one probe takes ~2 ms).
constexpr int64_t ProbeSpacingNs = 100'000'000;

/// Runs the probe once; returns its result so it is not optimised away.
/// The table's memory comes from a buffer of its own, so the probe sees
/// the same layout whatever state the process heap is in.
uint64_t runProbe() {
  alignas(64) static std::byte Arena[4 << 20];
  std::pmr::monotonic_buffer_resource Pool(Arena, sizeof Arena,
                                           std::pmr::null_memory_resource());
  std::pmr::unordered_map<uint64_t, uint64_t> H(&Pool);
  uint64_t Y = 9, Sum = 0;
  for (unsigned J = 0; J != ProbeEntries; ++J) {
    Y = Y * 6364136223846793005ull + 1442695040888963407ull;
    H[Y >> 20] += J;
  }
  for (unsigned J = 0; J != ProbeEntries; ++J) {
    Y = Y * 6364136223846793005ull + 1442695040888963407ull;
    Sum += H.count(Y >> 20);
  }
  return Sum + H.size();
}

/// Keeps the probe's result observable.
volatile uint64_t ProbeSink = 0;

/// Observer phase name -> span (layer) name. Anything unlisted is
/// reported under the unaccounted remainder.
const char *layerOfPhase(const std::string &Phase) {
  static const std::map<std::string, const char *> M = {
      {"parse", "baker.parse"},
      {"ir-lower", "ir.lower"},
      {"verify", "ir.verify"},
      {"profile", "profile"},
      {"aggregate-formation", "map.aggregate_formation"},
      {"placement", "map.placement"},
      {"inline", "opt.inline"},
      {"o1", "opt.o1"},
      {"o2", "opt.o2"},
      {"pac", "pktopt.pac"},
      {"soar", "pktopt.soar"},
      {"phr", "pktopt.phr"},
      {"phr-cleanup", "pktopt.phr"},
      {"swc", "pktopt.swc"},
      {"pkt-lifetime", "analysis.pkt_lifetime"},
      {"state-race", "analysis.state_race"},
      {"header-bounds", "analysis.header_bounds"},
      {"meir-validate", "analysis.meir_validate"},
      {"memory-map", "rts.memory_map"},
      {"codegen", "cg.codegen"},
      {"calibrate", "driver.feedback.calibrate"},
  };
  auto It = M.find(Phase);
  return It == M.end() ? "trace.unaccounted" : It->second;
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

enum class Workload { Ladder, Soak, Stateful };

/// Simulator settings of one workload. Warm-up and window are simulated
/// cycles. TraceLen is the traffic trace cycled under infinite offered
/// load; its first DrainLen packets are drained once for the output check.
struct WorkloadParams {
  const char *Name;
  unsigned TraceLen;
  unsigned DrainLen;
  uint64_t WarmCycles;
  uint64_t WindowCycles;
};

WorkloadParams paramsOf(Workload W) {
  switch (W) {
  case Workload::Ladder:
    return {"ladder-sweep", 512, 64, 20'000, 60'000};
  case Workload::Soak:
    return {"forward-soak", 512, 512, 140'000, 2'100'000};
  case Workload::Stateful:
    return {"stateful-adversarial", 512, 512, 40'000, 800'000};
  }
  return {"?", 0, 0, 0, 0};
}

const driver::OptLevel Ladder[] = {
    driver::OptLevel::Base, driver::OptLevel::O1,   driver::OptLevel::O2,
    driver::OptLevel::Pac,  driver::OptLevel::Soar, driver::OptLevel::Phr,
    driver::OptLevel::Swc,
};

constexpr unsigned ProfTraceLen = 256;
constexpr unsigned ThreadsPerME = 8;

/// One (app, level, MEs[, profile]) compile, simulation and check.
struct CellSpec {
  unsigned App = 0;
  driver::OptLevel Level = driver::OptLevel::Swc;
  unsigned MEs = 6;
  int Profile = -1;      ///< Index into traffic::allProfiles(); -1 = none.
  bool Feedback = false; ///< compileWithFeedback on benign traffic.
};

std::string cellName(const CellSpec &C, const apps::AppBundle &B) {
  std::string N = B.Name + "/" + driver::optLevelName(C.Level) + "/" +
                  std::to_string(C.MEs) + "ME";
  if (C.Profile >= 0)
    N += std::string("/") +
         traffic::profileName(traffic::allProfiles()[C.Profile]);
  if (C.Feedback)
    N += "/feedback";
  return N;
}

std::vector<CellSpec> cellsOf(Workload W) {
  std::vector<CellSpec> Cells;
  switch (W) {
  case Workload::Ladder:
    for (unsigned A = 0; A != 3; ++A)
      for (driver::OptLevel L : Ladder)
        for (unsigned N = 1; N <= 6; ++N)
          Cells.push_back({A, L, N, -1, false});
    break;
  case Workload::Soak:
    for (unsigned A = 0; A != 3; ++A)
      Cells.push_back({A, driver::OptLevel::Swc, 6, -1, false});
    break;
  case Workload::Stateful:
    for (unsigned A = 0; A != 3; ++A) {
      for (unsigned P = 0; P != traffic::allProfiles().size(); ++P)
        Cells.push_back({A, driver::OptLevel::Swc, 4, int(P), false});
      Cells.push_back({A, driver::OptLevel::Swc, 4, 0, true});
    }
    break;
  }
  return Cells;
}

//===----------------------------------------------------------------------===//
// Set-up: inputs and reference outputs
//===----------------------------------------------------------------------===//

using FrameList = std::vector<std::vector<uint8_t>>;

/// Generated inputs of one app and the interpreter's outputs for them.
/// Paper apps have one traffic trace; stateful apps one per profile.
struct AppInputs {
  apps::AppBundle Bundle;
  profile::Trace ProfTrace;
  std::vector<profile::Trace> Traffic;
  /// The drained prefix of each traffic trace, and the interpreter's Tx
  /// frames for it, in interpreter order.
  std::vector<profile::Trace> Drain;
  std::vector<FrameList> Reference;
  uint64_t InterpSteps = 0;
  std::string Error;
};

bool isStateful(Workload W) { return W == Workload::Stateful; }

std::vector<AppInputs> makeInputs(Workload W, uint64_t Seed) {
  WorkloadParams P = paramsOf(W);
  std::vector<apps::AppBundle> Bundles =
      isStateful(W) ? apps::statefulApps() : apps::allApps();
  std::vector<AppInputs> Out;
  for (unsigned A = 0; A != Bundles.size(); ++A) {
    AppInputs In;
    In.Bundle = std::move(Bundles[A]);
    {
      Timed T("traffic.gen", 0);
      In.ProfTrace = In.Bundle.makeTrace(subSeed(Seed, A, 0), ProfTraceLen);
      if (isStateful(W)) {
        std::vector<traffic::Profile> Profiles = traffic::allProfiles();
        for (unsigned K = 0; K != Profiles.size(); ++K)
          In.Traffic.push_back(apps::adversarialTrace(
              In.Bundle, Profiles[K], subSeed(Seed, A, 1 + K), P.TraceLen));
      } else {
        In.Traffic.push_back(
            In.Bundle.makeTrace(subSeed(Seed, A, 1), P.TraceLen));
      }
    }
    for (const profile::Trace &Tr : In.Traffic)
      In.Drain.emplace_back(
          Tr.begin(), Tr.begin() + std::min<size_t>(P.DrainLen, Tr.size()));
    Timed T("interp.reference", 0);
    for (const profile::Trace &Tr : In.Drain) {
      // A fresh interpreter per trace: stateful apps start from their
      // configured tables, as a freshly loaded simulator does.
      apps::AppInterp AI = apps::makeAppInterp(In.Bundle);
      if (!AI.I) {
        In.Error = AI.Error;
        break;
      }
      FrameList Ref;
      for (const profile::TracePacket &Pkt : Tr) {
        interp::RunResult R = AI.I->inject(Pkt.Frame, Pkt.Port);
        In.InterpSteps += R.Steps;
        if (R.Error) {
          In.Error = "interpreter: " + R.ErrorMsg;
          break;
        }
        for (interp::TxPacket &Tx : R.Tx)
          Ref.push_back(std::move(Tx.Frame));
      }
      In.Reference.push_back(std::move(Ref));
    }
    Out.push_back(std::move(In));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Simulation
//===----------------------------------------------------------------------===//

/// Installs \p T as the traffic source: cycled forever when \p Cycle,
/// otherwise offered once (null after the last packet).
void installTraffic(ixp::Simulator &Sim, const profile::Trace &T,
                    bool Cycle) {
  Sim.setTraffic([&T, Cycle](uint64_t I) -> const ixp::SimPacket * {
    static thread_local ixp::SimPacket P;
    if (!Cycle && I >= T.size())
      return nullptr;
    const profile::TracePacket &Src = T[I % T.size()];
    P.Frame = Src.Frame;
    P.Port = Src.Port;
    return &P;
  });
}

/// Simulated results of one measured window (deterministic).
struct WindowResult {
  double Gbps = 0.0;
  double PktPerKCycle = 0.0;
  ixp::SimStats Stats; ///< Cumulative over warm-up + window.
  ixp::SimTelemetry Telem;
  bool Conserves = false;
  double HostMs = 0.0; ///< Host time inside Simulator::run.
};

/// Warms up, then measures a window of \p Window cycles under infinite
/// offered load (the trace is cycled), as the paper's Figs. 13-15 do.
WindowResult measureWindow(const driver::CompiledApp &App,
                           const profile::Trace &T, uint64_t Warm,
                           uint64_t Window, ixp::ExecMode Mode,
                           unsigned Cell) {
  ixp::ChipParams Chip;
  Chip.ThreadsPerME = ThreadsPerME;
  std::unique_ptr<ixp::Simulator> Sim;
  {
    Timed S("ixp.make_simulator", Cell);
    Sim = driver::makeSimulator(App, Chip);
  }
  ixp::SimOptions O;
  O.Mode = Mode;
  Sim->setOptions(O);
  installTraffic(*Sim, T, /*Cycle=*/true);
  ixp::SimStats Before;
  {
    Timed S("ixp.warmup", Cell);
    Sim->run(Warm);
    Before = Sim->run(0);
  }
  WindowResult R;
  {
    Timed S("ixp.window", Cell);
    R.Stats = Sim->run(Window);
    R.Telem = Sim->telemetry();
  }
  uint64_t DBytes = R.Stats.TxBytes - Before.TxBytes;
  uint64_t DPkts = R.Stats.TxPackets - Before.TxPackets;
  uint64_t DCycles = R.Stats.Cycles - Before.Cycles;
  if (DCycles) {
    R.Gbps = double(DBytes) * 8.0 * Chip.ClockGHz / double(DCycles);
    R.PktPerKCycle = 1000.0 * double(DPkts) / double(DCycles);
  }
  R.Conserves = R.Telem.Drops.conserves(R.Stats);
  R.HostMs = Sim->simWallMs();
  Timed Teardown("ixp.teardown", Cell);
  Sim.reset();
  return R;
}

/// A finite run of \p T to quiescence, capturing every transmitted frame.
struct DrainResult {
  bool Drained = false;
  bool Conserves = false;
  FrameList Frames;
  uint64_t Cycles = 0, Instrs = 0;
  double HostMs = 0.0;
};

DrainResult drainRun(const driver::CompiledApp &App, const profile::Trace &T,
                     unsigned Threads, unsigned Cell) {
  ixp::ChipParams Chip;
  Chip.ThreadsPerME = Threads;
  std::unique_ptr<ixp::Simulator> Sim;
  {
    Timed S("ixp.make_simulator", Cell);
    Sim = driver::makeSimulator(App, Chip);
  }
  ixp::SimOptions O;
  O.Mode = ixp::ExecMode::FastForward;
  Sim->setOptions(O);
  Sim->enableCapture();
  Sim->setMaxInjected(T.size());
  installTraffic(*Sim, T, /*Cycle=*/false);
  DrainResult R;
  Timed S("ixp.drain", Cell);
  Sim->run(50'000'000); // Returns as soon as the trace has drained.
  ixp::SimStats St = Sim->run(0);
  R.Drained = Sim->drained();
  R.Conserves = Sim->telemetry().Drops.conserves(St);
  for (const ixp::SimTxRecord &Tx : Sim->captured())
    R.Frames.push_back(Tx.Frame);
  R.Cycles = St.Cycles;
  R.Instrs = St.Instrs;
  R.HostMs = Sim->simWallMs();
  S.stop();
  Timed Teardown("ixp.teardown", Cell);
  Sim.reset();
  return R;
}

/// Output equality with the interpreter: in order, or as a multiset.
bool sameOutput(FrameList Got, FrameList Want, bool Ordered) {
  if (!Ordered) {
    std::sort(Got.begin(), Got.end());
    std::sort(Want.begin(), Want.end());
  }
  return Got == Want;
}

std::string telemetryJson(const WindowResult &R) {
  std::ostringstream OS;
  ixp::writeTelemetryJson(OS, R.Stats, R.Telem);
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Compilation
//===----------------------------------------------------------------------===//

/// The trace that drives the Functional Profiler for a cell: stateful
/// cells profile their own traffic profile, everything else (and the
/// single-copy check build) the app's seeded profiling trace.
const profile::Trace &profTraceOf(const CellSpec &C, const AppInputs &In,
                                  bool SingleCopy) {
  return C.Profile >= 0 && !SingleCopy ? In.Traffic[C.Profile] : In.ProfTrace;
}

driver::CompileOptions optionsFor(const CellSpec &C, const AppInputs &In,
                                  obs::CompileObserver *Obs) {
  driver::CompileOptions Opts;
  Opts.Level = C.Level;
  Opts.Map.NumMEs = C.MEs;
  Opts.TxMetaFields = In.Bundle.TxMetaFields;
  Opts.Observer = Obs;
  return Opts;
}

/// Per-pass compile statistics (counts from the produced programs).
struct CompileCounts {
  double Calls = 0, PlanIterations = 0, FeedbackRounds = 0;
  double IrInstrs = 0, IrInstrsOut = 0;
  double Aggregates = 0, MeCopies = 0, NNChannels = 0;
  double Findings = 0;
  double MeInstrs = 0, Spilled = 0, StackSramWords = 0;
  double WcetSum = 0, WcetCells = 0;
  std::map<std::string, double> Remarks; ///< "pktopt.pac.fired" -> n.
};

/// Converts the observer's pass records into child spans of the open
/// compile span and folds its counts into \p CC.
void harvestObserver(const obs::CompileObserver &Obs, int64_t EpochNs,
                     unsigned Cell, CompileCounts &CC) {
  for (const obs::PassRecord &P : Obs.passes()) {
    int64_t S = EpochNs + int64_t(P.StartUs) * 1000;
    Spans.addClosedChild(layerOfPhase(P.Name), S, S + int64_t(P.WallUs) * 1000,
                         Cell);
    if (P.Name == "ir-lower")
      CC.IrInstrs += double(P.After.Instrs);
    if (P.Name == "verify")
      CC.IrInstrsOut += double(P.After.Instrs);
  }
  for (const char *Pass : {"pac", "soar", "phr", "swc"}) {
    std::string K = std::string("pktopt.") + Pass;
    CC.Remarks[K + ".fired"] += Obs.Remarks.count(Pass, obs::RemarkKind::Fired);
    CC.Remarks[K + ".missed"] +=
        Obs.Remarks.count(Pass, obs::RemarkKind::Missed);
  }
}

void countProgram(const driver::CompiledApp &App, CompileCounts &CC) {
  CC.PlanIterations += App.PlanIterations;
  CC.Findings += double(App.Findings.size());
  for (const map::Aggregate &A : App.Plan.Aggregates) {
    if (A.InputChans.empty())
      continue; // Fully merged into another aggregate.
    CC.Aggregates += 1;
    if (!A.OnXScale)
      CC.MeCopies += A.Copies;
  }
  for (const map::ChannelDecision &D : App.Plan.Channels)
    CC.NNChannels += D.Kind == map::ChannelKind::NextNeighbor;
  double Wcet = 0;
  for (const driver::AggregateBinary &B : App.Images) {
    CC.MeInstrs += B.Code.CodeSlots;
    CC.Spilled += B.RegAlloc.SpilledRegs;
    CC.StackSramWords += B.Stack.SramWords;
    if (!B.OnXScale)
      Wcet = std::max(Wcet, B.Wcet.CyclesPerPacket);
  }
  CC.WcetSum += Wcet; // The slowest ME stage bounds the pipeline.
  CC.WcetCells += 1;
}

/// Byte-level serialization of every loaded image, for identity checks.
std::string imageBytes(const driver::CompiledApp &App) {
  std::string Out;
  auto Put = [&Out](const void *P, size_t N) {
    Out.append(static_cast<const char *>(P), N);
  };
  for (const driver::AggregateBinary &B : App.Images) {
    Out += B.Code.Name;
    Put(&B.Code.CodeSlots, sizeof B.Code.CodeSlots);
    Put(&B.Copies, sizeof B.Copies);
    for (unsigned R : B.Rings)
      Put(&R, sizeof R);
    for (const cg::MInstr &I : B.Code.Code) {
      int64_t F[] = {int64_t(I.Op),      int64_t(I.Cond),   int64_t(I.Space),
                     int64_t(I.Class),   I.Dst,             I.SrcA,
                     I.SrcB,             I.Imm,             I.Xfer,
                     I.Words,            I.Target,          I.CamBase,
                     I.CamSize,          I.Ring,            I.NNRing,
                     I.LmFast,           I.StackSlot,       I.SlotWord,
                     I.ThreadStack};
      Put(F, sizeof F);
      Out += I.Comment;
      Out += '\0';
    }
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Passes
//===----------------------------------------------------------------------===//

/// Everything one pass over the workload's cells measured.
struct PassResult {
  int64_t WallNs = 0;  ///< Pass duration minus checks and probes.
  int64_t CheckNs = 0; ///< Output checks (excluded from WallNs).
  int64_t ProbeNs = 0; ///< Host-speed probes (excluded from WallNs).
  std::vector<double> ProbeMs;
  std::vector<double> CompileMs;
  uint64_t SimCycles = 0, SimInstrs = 0;
  double SimHostMs = 0.0;
  std::vector<double> Gbps, PktPerKCycle;
  support::Histogram Egress;
  unsigned Cells = 0, Failed = 0;
  uint64_t PktsCompared = 0;
  std::vector<uint64_t> Fingerprints; ///< One per cell, in cell order.
  std::vector<std::string> Failures;
  CompileCounts Counts;
  // Simulated chip counters summed over cells (measured windows).
  double MeBusy = 0, MeMem = 0, MeRing = 0, MeIdle = 0, MeCycles = 0;
  double Acc[3] = {0, 0, 0}, Injected = 0;
  double Wait[3] = {0, 0, 0}, Accesses[3] = {0, 0, 0};
  double DropRingFull = 0, DropApp = 0, DropMalformed = 0;
  size_t FirstSpan = 0, EndSpan = 0;
};

struct Harness {
  Workload W;
  WorkloadParams P;
  std::vector<CellSpec> Cells;
  std::vector<AppInputs> &Inputs;
  bool CorruptReference = false;
  /// Fingerprints of the first pass; later passes must reproduce them.
  std::vector<uint64_t> FirstFingerprints;
  /// FastForward telemetry of the guard cell (first pass).
  std::string GuardTelemetry;
  unsigned GuardCell = 0;
  /// +SWC cells whose 8-thread drained output differs from the
  /// interpreter's (first pass).
  unsigned SwcThreadMismatch = 0;
  int64_t LastProbeNs = 0;

  Harness(Workload W, std::vector<AppInputs> &In)
      : W(W), P(paramsOf(W)), Cells(cellsOf(W)), Inputs(In) {}

  /// Times the host-speed probe if ProbeSpacingNs has passed since the
  /// last one.
  void maybeProbe(PassResult &R, unsigned Cell) {
    if (nowNs() - LastProbeNs < ProbeSpacingNs)
      return;
    Timed T("host.probe", Cell);
    ProbeSink = runProbe();
    int64_t Ns = T.stop();
    R.ProbeNs += Ns;
    R.ProbeMs.push_back(double(Ns) / 1e6);
    LastProbeNs = nowNs();
  }

  void fail(PassResult &R, unsigned Cell, const std::string &Why) {
    ++R.Failed;
    R.Failures.push_back(
        cellName(Cells[Cell], Inputs[Cells[Cell].App].Bundle) + ": " + Why);
  }

  void foldWindow(PassResult &R, const WindowResult &WR) {
    R.Gbps.push_back(WR.Gbps);
    R.PktPerKCycle.push_back(WR.PktPerKCycle);
    R.Egress.merge(WR.Telem.Latency.Egress);
    R.SimCycles += WR.Stats.Cycles;
    R.SimInstrs += WR.Stats.Instrs;
    R.SimHostMs += WR.HostMs;
    for (const ixp::METelemetry &ME : WR.Telem.MEs) {
      if (ME.XScale)
        continue;
      for (const ixp::ThreadTelemetry &T : ME.Threads) {
        R.MeBusy += double(T.Busy);
        R.MeMem += double(T.MemStall);
        R.MeRing += double(T.RingWait);
        R.MeIdle += double(T.Idle);
        R.MeCycles += double(T.total());
      }
    }
    for (unsigned S = 0; S != 3; ++S) {
      for (unsigned C = 0; C != 7; ++C)
        R.Acc[S] += double(WR.Stats.Accesses[S][C]);
      R.Wait[S] += double(WR.Telem.Units[S].WaitCycles);
      R.Accesses[S] += double(WR.Telem.Units[S].Accesses);
    }
    R.Injected += double(WR.Stats.RxInjected);
    const uint64_t *D = WR.Telem.Drops.ByReason;
    R.DropRingFull += double(D[unsigned(ixp::DropReason::RingFull)]);
    R.DropApp += double(D[unsigned(ixp::DropReason::AppDrop)]);
    R.DropMalformed += double(D[unsigned(ixp::DropReason::MalformedFrame)]);
  }

  /// Compiles one cell (timed: one compile_ms sample).
  /// \p SingleCopy builds one unreplicated pipeline copy (the stateful
  /// apps' configuration whose output at one thread per ME equals the
  /// interpreter's byte for byte and in order; see
  /// apps::compileSingleCopy).
  std::unique_ptr<driver::CompiledApp>
  compileCell(const CellSpec &C, unsigned Cell, PassResult &R,
              std::string &Err, bool SingleCopy = false) {
    AppInputs &In = Inputs[C.App];
    std::unique_ptr<obs::CompileObserver> Obs;
    if (Spans.On)
      Obs = std::make_unique<obs::CompileObserver>();
    int64_t Epoch = Obs ? nowNs() - int64_t(Obs->nowUs()) * 1000 : 0;
    driver::CompileOptions Opts = optionsFor(C, In, Obs.get());
    if (SingleCopy) {
      Opts.Map.Replicate = false;
      Opts.Map.AllowDuplication = false;
    }
    DiagEngine Diags;
    std::unique_ptr<driver::CompiledApp> App;
    Timed T(C.Feedback ? "driver.feedback" : "driver.compile", Cell);
    if (C.Feedback) {
      driver::FeedbackOptions FB;
      FB.CalibExecMode = ixp::ExecMode::FastForward;
      driver::FeedbackResult FR = driver::compileWithFeedback(
          In.Bundle.Source, In.ProfTrace, In.Traffic[0], In.Bundle.Tables,
          Opts, FB, Diags);
      App = std::move(FR.App);
      R.Counts.FeedbackRounds += double(FR.Rounds.size());
    } else {
      App = driver::compile(In.Bundle.Source, profTraceOf(C, In, SingleCopy),
                            In.Bundle.Tables, Opts, Diags);
    }
    if (Obs)
      harvestObserver(*Obs, Epoch, Cell, R.Counts);
    R.CompileMs.push_back(double(T.stop()) / 1e6);
    R.Counts.Calls += 1;
    if (App)
      countProgram(*App, R.Counts);
    else
      Err = Diags.str();
    return App;
  }

  PassResult runPass(bool First) {
    PassResult R;
    R.FirstSpan = Spans.size();
    int64_t Start = nowNs();
    Timed PassSpan("pass", 0);
    std::vector<std::unique_ptr<driver::CompiledApp>> SingleCopy(
        Inputs.size());
    for (unsigned I = 0; I != Cells.size(); ++I) {
      const CellSpec &C = Cells[I];
      const AppInputs &In = Inputs[C.App];
      Timed CellSpan("cell", I);
      maybeProbe(R, I);
      ++R.Cells;
      std::string Err;
      auto App = compileCell(C, I, R, Err);
      if (!App) {
        fail(R, I, "compile error: " + Err);
        R.Fingerprints.push_back(0);
        continue;
      }
      unsigned T = C.Profile < 0 ? 0 : unsigned(C.Profile);
      const profile::Trace &Traffic = In.Traffic[T];
      WindowResult WR =
          measureWindow(*App, Traffic, P.WarmCycles, P.WindowCycles,
                        ixp::ExecMode::FastForward, I);
      foldWindow(R, WR);

      // The run that produces the checked output: drained at one thread
      // per ME, where every build's output equals the interpreter's (as a
      // multiset for the paper apps; byte for byte and in order for the
      // stateful apps' single-copy build). The replicated stateful build
      // is order-dependent, so only its drop ledger is checked.
      DrainResult DR;
      bool HaveDrain = false;
      if (!isStateful(W)) {
        DR = drainRun(*App, In.Drain[T], 1, I);
        HaveDrain = true;
      } else if (!C.Feedback) {
        if (!SingleCopy[C.App]) {
          std::string ScErr;
          SingleCopy[C.App] = compileCell(C, I, R, ScErr, /*SingleCopy=*/true);
        }
        if (SingleCopy[C.App]) {
          DR = drainRun(*SingleCopy[C.App], In.Drain[T], 1, I);
          HaveDrain = true;
        } else {
          fail(R, I, "single-copy compile error");
        }
      }
      if (HaveDrain) {
        R.SimCycles += DR.Cycles;
        R.SimInstrs += DR.Instrs;
        R.SimHostMs += DR.HostMs;
      }

      Timed Check("check", I);
      if (!WR.Conserves)
        fail(R, I, "drop ledger does not close on the measured window");
      uint64_t FP = fnv1a(&WR.Gbps, sizeof WR.Gbps, 0xCBF29CE484222325ull);
      std::string TJ = telemetryJson(WR);
      FP = fnv1a(TJ.data(), TJ.size(), FP);
      const FrameList &Ref = In.Reference[T];
      bool Ordered = isStateful(W);
      if (HaveDrain) {
        if (!DR.Drained)
          fail(R, I, "did not drain");
        if (!DR.Conserves)
          fail(R, I, "drop ledger does not close on the drained run");
        R.PktsCompared += Ref.size();
        FrameList Want = Ref;
        if (CorruptReference && I == 0 && !Want.empty() && !Want[0].empty())
          Want[0][Want[0].size() / 2] ^= 0x01;
        if (!sameOutput(DR.Frames, Want, Ordered))
          fail(R, I,
               "output differs from the interpreter (" +
                   std::to_string(DR.Frames.size()) + " frames vs " +
                   std::to_string(Ref.size()) + ")");
        for (const std::vector<uint8_t> &F : DR.Frames)
          FP = fnv1a(F.data(), F.size(), FP);
      }
      // First pass only: the paper apps also drain at full thread count.
      // Below +SWC that output equals the interpreter's as a multiset. At
      // +SWC it does not always (SWC cache fills are not coherent across
      // the threads of one ME), so those cells are counted, not failed.
      if (First && !isStateful(W)) {
        DrainResult DR8 = drainRun(*App, In.Drain[T], ThreadsPerME, I);
        bool Same = DR8.Drained && DR8.Conserves &&
                    sameOutput(DR8.Frames, Ref, /*Ordered=*/false);
        if (C.Level == driver::OptLevel::Swc)
          SwcThreadMismatch += !Same;
        else if (!Same)
          fail(R, I, "8-thread output differs from the interpreter");
      }
      if (First && I == GuardCell)
        GuardTelemetry = TJ;
      R.Fingerprints.push_back(FP);
      if (!First && FP != FirstFingerprints[I])
        fail(R, I, "simulated results differ from the first pass");
      R.CheckNs += Check.stop();
      Timed Teardown("driver.teardown", I);
      App.reset();
    }
    PassSpan.stop();
    R.WallNs = nowNs() - Start - R.CheckNs - R.ProbeNs;
    R.EndSpan = Spans.size();
    if (First)
      FirstFingerprints = R.Fingerprints;
    return R;
  }

  //===--------------------------------------------------------------------===//
  // One-off guards
  //===--------------------------------------------------------------------===//

  /// FastForward and Sequential must produce identical telemetry.
  bool sequentialGuard(std::string &Why) {
    const CellSpec &C = Cells[GuardCell];
    const AppInputs &In = Inputs[C.App];
    PassResult Scratch;
    std::string Err;
    auto App = compileCell(C, GuardCell, Scratch, Err);
    if (!App) {
      Why = "guard compile failed";
      return false;
    }
    WindowResult Seq = measureWindow(
        *App, In.Traffic[C.Profile < 0 ? 0 : C.Profile], P.WarmCycles,
        P.WindowCycles, ixp::ExecMode::Sequential, GuardCell);
    if (telemetryJson(Seq) != GuardTelemetry) {
      Why = "Sequential telemetry differs from FastForward";
      return false;
    }
    return true;
  }

  /// Attaching a CompileObserver must not change the produced images.
  bool observerProof(std::string &Why) {
    const CellSpec &C = Cells[GuardCell];
    const AppInputs &In = Inputs[C.App];
    const profile::Trace &Prof = profTraceOf(C, In, /*SingleCopy=*/false);
    obs::CompileObserver Obs;
    DiagEngine D1, D2;
    auto Plain = driver::compile(In.Bundle.Source, Prof, In.Bundle.Tables,
                                 optionsFor(C, In, nullptr), D1);
    auto Observed = driver::compile(In.Bundle.Source, Prof, In.Bundle.Tables,
                                    optionsFor(C, In, &Obs), D2);
    if (!Plain || !Observed) {
      Why = "observer-proof compile failed";
      return false;
    }
    if (Obs.passes().empty()) {
      Why = "observer recorded no passes";
      return false;
    }
    if (imageBytes(*Plain) != imageBytes(*Observed)) {
      Why = "images differ with the observer attached";
      return false;
    }
    return true;
  }
};

/// Re-runs the paper's Fig. 13 +SWC@6 cell with the fig13 bench settings;
/// it must reproduce the committed forwarding rate exactly.
bool paperAnchor(std::string &Why) {
  apps::AppBundle App = apps::l3switch();
  driver::CompileOptions Opts;
  Opts.Level = driver::OptLevel::Swc;
  Opts.Map.NumMEs = 6;
  Opts.TxMetaFields = App.TxMetaFields;
  DiagEngine Diags;
  auto C = driver::compile(App.Source, App.makeTrace(0x9999, 256),
                           App.Tables, Opts, Diags);
  if (!C) {
    Why = "anchor compile failed";
    return false;
  }
  profile::Trace T = App.makeTrace(0x13141516, 512);
  WindowResult R = measureWindow(*C, T, 140'000, 700'000,
                                 ixp::ExecMode::FastForward, 0);
  const double Expected = 3.462582857142857;
  if (R.Gbps != Expected) {
    char Buf[128];
    std::snprintf(Buf, sizeof Buf, "anchor %.17g Gbps != %.17g", R.Gbps,
                  Expected);
    Why = Buf;
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
  std::string Note; ///< Sample count / base, for the human table.
};

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double S = 0;
  for (double X : V)
    S += std::log(std::max(X, 1e-12));
  return std::exp(S / double(V.size()));
}

/// Quantile \p Q of \p H, interpolated linearly inside the bucket that
/// holds the target rank (Histogram::quantile returns the bucket's upper
/// bound, which moves in ~6% steps).
double interpolatedQuantile(const support::Histogram &H, double Q) {
  if (H.count() == 0)
    return 0.0;
  double Target = Q * double(H.count());
  double Below = 0;
  for (unsigned B = 0; B != support::Histogram::NumBuckets; ++B) {
    double N = double(H.bucketCount(B));
    if (N == 0 || Below + N < Target) {
      Below += N;
      continue;
    }
    double Lo = double(std::max(support::Histogram::bucketLo(B), H.min()));
    double Hi = double(std::min(support::Histogram::bucketHi(B), H.max()));
    return Lo + (Hi - Lo) * std::clamp((Target - Below) / N, 0.0, 1.0);
  }
  return double(H.max());
}

/// Compile time per compile site (the n-th compile call of a pass): the
/// median over passes, so a burst of host contention during one pass does
/// not move the percentiles taken over sites.
std::vector<double> perSiteMedians(const std::vector<const PassResult *> &Ps) {
  std::vector<double> Out;
  if (Ps.empty())
    return Out;
  for (size_t Site = 0; Site != Ps.front()->CompileMs.size(); ++Site) {
    std::vector<double> V;
    for (const PassResult *R : Ps)
      if (Site < R->CompileMs.size())
        V.push_back(R->CompileMs[Site]);
    Out.push_back(median(V));
  }
  return Out;
}

/// Peak resident memory of this process image. VmHWM starts afresh at
/// exec; getrusage's ru_maxrss would also count the launching process.
double peakRssMb() {
  std::ifstream IS("/proc/self/status");
  std::string Line;
  while (std::getline(IS, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB -> MB
  return 0.0;
}

/// Per-layer metrics of the traced passes, averaged per pass.
std::vector<Metric> layerMetrics(const std::vector<const PassResult *> &Traced,
                                 double UntracedWallMs,
                                 const std::vector<AppInputs> &Inputs,
                                 const std::map<std::string, int64_t> &SetupNs,
                                 size_t SetupReps, unsigned SwcThreadMismatch) {
  std::vector<Metric> M;
  double N = double(Traced.size());
  std::map<std::string, double> SelfMs, Calls;
  double TracedWallMs = 0, CheckMs = 0;
  size_t SpanCount = 0;
  for (const PassResult *R : Traced) {
    TracedWallMs += double(R->WallNs) / 1e6 / N;
    CheckMs += double(R->CheckNs) / 1e6 / N;
    SpanCount += R->EndSpan - R->FirstSpan;
    for (size_t I = R->FirstSpan; I != R->EndSpan; ++I) {
      const SpanLog::Span &S = Spans[I];
      if (S.Name == "check" || S.Name == "host.probe")
        continue; // Excluded from wall_s; check is reported as check.ms.
      double Self = double(S.End - S.Start - S.ChildNs) / 1e6 / N;
      const std::string &K = S.Name == "pass" || S.Name == "cell"
                                 ? std::string("trace.unaccounted")
                                 : S.Name;
      SelfMs[K] += Self;
      Calls[S.Name] += 1;
    }
  }
  double SelfTotal = 0;
  for (const auto &[K, V] : SelfMs)
    SelfTotal += V;
  auto Ms = [&](const char *Span, const char *Name) {
    M.push_back({Name, SelfMs[Span], "ms", ""});
    SelfMs.erase(Span);
  };
  auto Count = [&](const char *Name, double V, const char *Unit = "count") {
    M.push_back({Name, V, Unit, ""});
  };
  const PassResult &R0 = *Traced.front();
  auto PerPass = [&](auto Get) {
    double S = 0;
    for (const PassResult *R : Traced)
      S += Get(*R);
    return S / N;
  };
  const CompileCounts &CC = R0.Counts; // Counts repeat exactly per pass.

  Count("driver.compile.calls", CC.Calls);
  Ms("driver.compile", "driver.compile.self_ms");
  Count("driver.plan_iterations", CC.PlanIterations);
  Ms("driver.feedback", "driver.feedback.ms");
  Count("driver.feedback.rounds", CC.FeedbackRounds);
  Ms("driver.feedback.calibrate", "driver.feedback.calibrate.ms");
  Ms("baker.parse", "baker.parse.ms");
  Count("baker.parse.calls", Calls["baker.parse"] / N);
  Ms("ir.lower", "ir.lower.ms");
  Count("ir.instrs", CC.IrInstrs);
  Ms("ir.verify", "ir.verify.ms");
  Ms("profile", "profile.ms");
  Count("profile.calls", Calls["profile"] / N);
  Ms("map.aggregate_formation", "map.aggregate_formation.ms");
  Ms("map.placement", "map.placement.ms");
  Count("map.aggregates", CC.Aggregates);
  Count("map.me_copies", CC.MeCopies);
  Count("map.nn_channels", CC.NNChannels);
  Ms("opt.inline", "opt.inline.ms");
  Ms("opt.o1", "opt.o1.ms");
  Ms("opt.o2", "opt.o2.ms");
  Count("opt.ir_instrs_out", CC.IrInstrsOut);
  for (const char *Pass : {"pac", "soar", "phr", "swc"}) {
    std::string K = std::string("pktopt.") + Pass;
    Ms(K.c_str(), (K + ".ms").c_str());
    Count((K + ".fired").c_str(), CC.Remarks.count(K + ".fired")
                                      ? CC.Remarks.at(K + ".fired")
                                      : 0.0);
    Count((K + ".missed").c_str(), CC.Remarks.count(K + ".missed")
                                       ? CC.Remarks.at(K + ".missed")
                                       : 0.0);
  }
  Ms("analysis.pkt_lifetime", "analysis.pkt_lifetime.ms");
  Ms("analysis.state_race", "analysis.state_race.ms");
  Ms("analysis.header_bounds", "analysis.header_bounds.ms");
  Ms("analysis.meir_validate", "analysis.meir_validate.ms");
  Count("analysis.findings", CC.Findings);
  Ms("rts.memory_map", "rts.memory_map.ms");
  Ms("cg.codegen", "cg.codegen.ms");
  Count("cg.me_instrs", CC.MeInstrs);
  Count("cg.spilled_regs", CC.Spilled);
  Count("cg.stack_sram_words", CC.StackSramWords);
  Count("cg.wcet_cycles_per_pkt",
        CC.WcetCells ? CC.WcetSum / CC.WcetCells : 0.0, "cycles/pkt");
  Ms("driver.teardown", "driver.teardown.ms");
  Ms("ixp.make_simulator", "ixp.make_simulator.ms");
  Ms("ixp.warmup", "ixp.warmup.ms");
  Ms("ixp.window", "ixp.window.ms");
  Ms("ixp.drain", "ixp.drain.ms");
  Ms("ixp.teardown", "ixp.teardown.ms");
  Count("ixp.sim_cycles", double(R0.SimCycles), "cycles");
  Count("ixp.instrs_retired", double(R0.SimInstrs));
  auto Frac = [&](double Part) {
    return R0.MeCycles ? Part / R0.MeCycles : 0.0;
  };
  Count("ixp.me.busy_frac", Frac(R0.MeBusy), "frac");
  Count("ixp.me.mem_stall_frac", Frac(R0.MeMem), "frac");
  Count("ixp.me.ring_wait_frac", Frac(R0.MeRing), "frac");
  Count("ixp.me.idle_frac", Frac(R0.MeIdle), "frac");
  const char *Units[3] = {"scratch", "sram", "dram"};
  for (unsigned S = 0; S != 3; ++S)
    Count((std::string("ixp.acc_per_pkt.") + Units[S]).c_str(),
          R0.Injected ? R0.Acc[S] / R0.Injected : 0.0, "acc/pkt");
  for (unsigned S = 1; S != 3; ++S)
    Count((std::string("ixp.mem.") + Units[S] + ".avg_wait").c_str(),
          R0.Accesses[S] ? R0.Wait[S] / R0.Accesses[S] : 0.0, "cycles");
  Count("ixp.drops.ring_full", R0.DropRingFull);
  Count("ixp.drops.app_drop", R0.DropApp);
  Count("ixp.drops.malformed", R0.DropMalformed);

  double Steps = 0;
  for (const AppInputs &In : Inputs)
    Steps += double(In.InterpSteps);
  auto SetupMs = [&](const char *K) {
    auto It = SetupNs.find(K);
    return It == SetupNs.end() ? 0.0 : double(It->second) / 1e6 / SetupReps;
  };
  M.push_back({"interp.reference.ms", SetupMs("interp.reference"), "ms", ""});
  Count("interp.steps", Steps);
  M.push_back({"traffic.gen.ms", SetupMs("traffic.gen"), "ms", ""});

  M.push_back({"check.ms", CheckMs, "ms", ""});
  Count("check.pkts_compared",
        PerPass([](const PassResult &R) { return double(R.PktsCompared); }));
  Count("check.swc_8thread_mismatch_cells", SwcThreadMismatch);
  double Unaccounted = SelfMs["trace.unaccounted"];
  SelfMs.erase("trace.unaccounted");
  for (const auto &[K, V] : SelfMs) // Layers without a metric of their own.
    Unaccounted += V;
  M.push_back({"trace.unaccounted.ms", Unaccounted, "ms",
               "self time no layer claims"});
  M.push_back({"trace.traced_wall_ms", TracedWallMs, "ms",
               "pass-level self times incl. unaccounted sum to " +
                   std::to_string(SelfTotal) + " ms"});
  M.push_back({"trace.untraced_wall_ms", UntracedWallMs, "ms",
               "base of trace.overhead_frac"});
  M.push_back({"trace.overhead_frac",
               UntracedWallMs ? TracedWallMs / UntracedWallMs - 1.0 : 0.0,
               "frac", "traced wall / untraced wall - 1"});
  M.push_back({"trace.spans", double(SpanCount) / N, "count", ""});
  return M;
}

void printJsonNumber(double V) {
  if (std::isfinite(V))
    std::printf("%.17g", V);
  else
    std::printf("0");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <ladder-sweep|forward-soak|"
               "stateful-adversarial> --seed <n> --seconds <s> --trace <0|1>"
               " [--spans-out <file>] [--corrupt-reference]\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  const char *WName = nullptr;
  uint64_t Seed = 0;
  double Seconds = 0;
  int TraceFlag = -1;
  const char *SpansOut = nullptr;
  bool Corrupt = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    bool HasV = I + 1 < argc;
    if (A == "--workload" && HasV)
      WName = argv[++I];
    else if (A == "--seed" && HasV)
      Seed = std::strtoull(argv[++I], nullptr, 0);
    else if (A == "--seconds" && HasV)
      Seconds = std::strtod(argv[++I], nullptr);
    else if (A == "--trace" && HasV)
      TraceFlag = std::atoi(argv[++I]);
    else if (A == "--spans-out" && HasV)
      SpansOut = argv[++I];
    else if (A == "--corrupt-reference")
      Corrupt = true;
    else
      return usage();
  }
  if (!WName || Seconds <= 0 || (TraceFlag != 0 && TraceFlag != 1))
    return usage();
  Workload W;
  if (std::strcmp(WName, "ladder-sweep") == 0)
    W = Workload::Ladder;
  else if (std::strcmp(WName, "forward-soak") == 0)
    W = Workload::Soak;
  else if (std::strcmp(WName, "stateful-adversarial") == 0)
    W = Workload::Stateful;
  else
    return usage();
  bool Traced = TraceFlag == 1;

  // Set-up: traffic traces and interpreter reference outputs. It runs
  // once before the warm-up pass and again before every measured pass, so
  // the reported median samples the whole run, like wall_s does. The
  // first set-up counts from process start; its inputs are the ones used
  // (every set-up builds identical inputs).
  std::vector<double> SetupS;
  std::map<std::string, int64_t> SetupNs;
  auto SetUp = [&](int64_t T0) {
    Spans.On = Traced;
    size_t First = Spans.size();
    std::vector<AppInputs> In = makeInputs(W, Seed);
    SetupS.push_back(double(nowNs() - T0) / 1e9);
    for (size_t I = First; I != Spans.size(); ++I)
      SetupNs[Spans[I].Name] += Spans[I].End - Spans[I].Start;
    Spans.On = false;
    return In;
  };
  std::vector<AppInputs> Inputs = SetUp(0);
  for (const AppInputs &In : Inputs)
    if (!In.Error.empty()) {
      std::fprintf(stderr, "set-up failed for %s: %s\n",
                   In.Bundle.Name.c_str(), In.Error.c_str());
      return 1;
    }

  Harness H(W, Inputs);
  H.CorruptReference = Corrupt;
  std::printf("[perfbench] workload=%s seed=%llu seconds=%g trace=%d "
              "cells/pass=%zu exec=fast threads/ME=%u warm=%llu "
              "window=%llu trace_len=%u\n",
              H.P.Name, static_cast<unsigned long long>(Seed), Seconds,
              TraceFlag, H.Cells.size(), ThreadsPerME,
              static_cast<unsigned long long>(H.P.WarmCycles),
              static_cast<unsigned long long>(H.P.WindowCycles),
              H.P.TraceLen);

  // Warm-up pass (host caches, allocator); checked like every pass.
  std::vector<PassResult> Passes;
  Passes.push_back(H.runPass(/*First=*/true));
  // Peak memory of set-up plus one pass over the workload. Read here, not
  // at exit: heap fragmentation grows it a little with every further
  // pass, and the number of passes depends on host speed.
  double PeakRss = peakRssMb();
  std::vector<const PassResult *> Untraced, TracedPasses;
  int64_t MeasureStart = nowNs();
  const unsigned MinEach = Traced ? 2 : 3;
  for (unsigned K = 0;; ++K) {
    bool TraceThis = Traced && K % 2 == 1;
    double Elapsed = double(nowNs() - MeasureStart) / 1e9;
    size_t NU = 0, NT = 0;
    for (size_t I = 1; I != Passes.size(); ++I)
      (Traced && I % 2 == 0 ? NT : NU)++;
    if (Elapsed >= Seconds && NU >= MinEach && (!Traced || NT >= MinEach))
      break;
    SetUp(nowNs());
    Spans.On = TraceThis;
    Passes.push_back(H.runPass(/*First=*/false));
    Spans.On = false;
  }
  for (size_t I = 1; I != Passes.size(); ++I)
    (Traced && I % 2 == 0 ? TracedPasses : Untraced).push_back(&Passes[I]);

  // One-off guards, each counted as a cell.
  unsigned Attempted = 0, Failed = 0;
  std::vector<std::string> Failures;
  for (const PassResult &R : Passes) {
    Attempted += R.Cells;
    Failed += R.Failed;
    for (const std::string &F : R.Failures)
      Failures.push_back(F);
  }
  struct Guard {
    const char *Name;
    bool Ok;
    std::string Why;
  };
  std::vector<Guard> Guards(3);
  Guards[0].Name = "paper-anchor";
  Guards[0].Ok = paperAnchor(Guards[0].Why);
  Guards[1].Name = "observer-proof";
  Guards[1].Ok = H.observerProof(Guards[1].Why);
  Guards[2].Name = "fast-vs-sequential";
  Guards[2].Ok = H.sequentialGuard(Guards[2].Why);
  for (const Guard &G : Guards) {
    ++Attempted;
    std::printf("guard %-20s %s %s\n", G.Name, G.Ok ? "ok" : "FAIL",
                G.Why.c_str());
    if (!G.Ok) {
      ++Failed;
      Failures.push_back(std::string(G.Name) + ": " + G.Why);
    }
  }
  for (const std::string &F : Failures)
    std::printf("FAILED %s\n", F.c_str());
  if (!isStateful(W))
    std::printf("known defect: %u +SWC cell(s) drain to output that differs "
                "from the interpreter at %u threads/ME (counted, not "
                "failed)\n",
                H.SwcThreadMismatch, ThreadsPerME);

  // Host speed of this run: the probes of every measured pass.
  std::vector<double> Probes;
  for (size_t I = 1; I != Passes.size(); ++I)
    Probes.insert(Probes.end(), Passes[I].ProbeMs.begin(),
                  Passes[I].ProbeMs.end());
  double ProbeMed = median(Probes);
  double Scale = ProbeMed > 0 ? ProbeRefMs / ProbeMed : 1.0;
  std::printf("host-speed probe: median %.4f ms over n=%zu probes, "
              "reference %.4g ms; host times below are scaled by %.4f\n",
              ProbeMed, Probes.size(), ProbeRefMs, Scale);
  auto Raw = [](double V, const char *Unit) {
    char B[64];
    std::snprintf(B, sizeof B, "; raw %.6g %s", V, Unit);
    return std::string(B);
  };

  // End-to-end metrics (from untraced passes).
  std::vector<double> WallS, SimRate;
  for (const PassResult *R : Untraced) {
    WallS.push_back(double(R->WallNs) / 1e9);
    if (R->SimHostMs > 0)
      SimRate.push_back(double(R->SimCycles) / 1e6 / (R->SimHostMs / 1e3));
  }
  const PassResult &R0 = Passes.front(); // Simulated results repeat exactly.
  std::string NPass = "n=" + std::to_string(Untraced.size()) + " passes";
  std::vector<double> CompileMs = perSiteMedians(Untraced);
  std::string NComp = "n=" + std::to_string(CompileMs.size()) + " sites x " +
                      std::to_string(Untraced.size()) + " passes";
  std::string NCell = "n=" + std::to_string(R0.Gbps.size()) + " cells";
  std::string NPkt = "n=" + std::to_string(R0.Egress.count()) + " packets";
  double CompP50 = percentile(CompileMs, 0.50);
  double CompP90 = percentile(CompileMs, 0.90);
  std::vector<Metric> E2E = {
      {"setup_s", median(SetupS) * Scale, "s",
       "median, n=" + std::to_string(SetupS.size()) + " set-ups" +
           Raw(median(SetupS), "s")},
      {"wall_s", median(WallS) * Scale, "s",
       "median, " + NPass + Raw(median(WallS), "s")},
      {"compile_ms.p50", CompP50 * Scale, "ms", NComp + Raw(CompP50, "ms")},
      {"compile_ms.p90", CompP90 * Scale, "ms",
       NComp + (CompileMs.size() < 100 ? " (<100 sites: <10 above p90)" : "") +
           Raw(CompP90, "ms")},
      {"sim_mcycles_per_s", median(SimRate) / Scale, "Mcycles/s",
       "median, " + NPass + Raw(median(SimRate), "Mcycles/s")},
      {"peak_rss_mb", PeakRss, "MB", "VmHWM after the warm-up pass"},
      {"gbps.geomean", geomean(R0.Gbps), "Gbps", NCell},
      {"pkts_per_kcycle.geomean", geomean(R0.PktPerKCycle), "pkts/kcycle",
       NCell},
      {"latency_cycles.p50", interpolatedQuantile(R0.Egress, 0.50), "cycles",
       NPkt},
      {"latency_cycles.p99", interpolatedQuantile(R0.Egress, 0.99), "cycles",
       NPkt},
      {"ops", double(Attempted), "cells",
       std::to_string(R0.Cells) + " per pass x " +
           std::to_string(Passes.size()) + " passes + " +
           std::to_string(Guards.size()) + " guards"},
      {"fail_frac", Attempted ? double(Failed) / Attempted : 0.0, "frac",
       std::to_string(Failed) + " failed"},
  };

  std::vector<Metric> Layers;
  if (Traced) {
    std::vector<double> UW;
    for (const PassResult *R : Untraced)
      UW.push_back(double(R->WallNs) / 1e6);
    Layers = layerMetrics(TracedPasses, median(UW), Inputs, SetupNs,
                          SetupS.size(), H.SwcThreadMismatch);
  }

  std::printf("untraced pass walls (s):");
  for (double X : WallS)
    std::printf(" %.4f", X);
  std::printf("\n\n%-32s %16s  %-12s %s\n", "end-to-end metric", "value",
              "unit", "samples");
  for (const Metric &M : E2E)
    std::printf("%-32s %16.6g  %-12s %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str(), M.Note.c_str());
  if (Traced) {
    std::printf("\n%-32s %16s  %-12s (per traced pass, n=%zu)\n",
                "per-layer metric", "value", "unit", TracedPasses.size());
    for (const Metric &M : Layers)
      std::printf("%-32s %16.6g  %-12s %s\n", M.Name.c_str(), M.Value,
                  M.Unit.c_str(), M.Note.c_str());
  }

  if (SpansOut) {
    std::ofstream OS(SpansOut);
    if (!OS) {
      std::fprintf(stderr, "cannot write %s\n", SpansOut);
      return 1;
    }
    Spans.writeJson(OS);
  }

  // The result line. ops and fail_frac travel as attempted/failed.
  const std::vector<Metric> &Out = Traced ? Layers : E2E;
  std::printf("{\"correct\": %s, \"attempted\": %u, \"failed\": %u, "
              "\"metrics\": {",
              Failed == 0 ? "true" : "false", Attempted, Failed);
  bool FirstOut = true;
  for (const Metric &M : Out) {
    if (M.Name == "ops" || M.Name == "fail_frac")
      continue;
    std::printf("%s\"%s\": {\"value\": ", FirstOut ? "" : ", ",
                M.Name.c_str());
    printJsonNumber(M.Value);
    std::printf(", \"unit\": \"%s\"}", M.Unit.c_str());
    FirstOut = false;
  }
  std::printf("}}\n");
  return 0;
}
