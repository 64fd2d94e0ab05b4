// Communication-induced checkpointing protocols.
//
// A protocol decides, at message receipt, whether a *forced* checkpoint must
// be taken before delivery (§1, §2.3).  Two families live behind the seam:
//
//  * The DV-only family piggybacks exactly the transitive dependency vector —
//    the same control information RDT-LGC consumes, which is the paper's
//    premise (§4.2, §4.5):
//     - Uncoordinated — never forces.  NOT an RDT protocol; used to
//       demonstrate useless checkpoints and the domino effect (Figure 2).
//     - FDI  (Fixed-Dependency-Interval, Wang [20]) — the dependency vector
//       must stay fixed over a whole interval: force whenever a message
//       brings any new dependency.
//     - FDAS (Fixed-Dependency-After-Send, Wang [20]; the paper's
//       Algorithm 4) — the vector must stay fixed only after the interval's
//       first send: force iff a send occurred in the current interval AND the
//       message brings a new dependency.  (The paper's Algorithm 4 pseudocode
//       initializes `forced <- true` but declares and maintains a `sent` flag
//       it never reads; FDAS requires `forced <- sent`, which is what we
//       implement.  FDI covers the literal reading.)
//     - MRS  (Mark-Receive-Send, Russell 1980) — no receive may follow a send
//       inside an interval: force iff a send occurred in the current
//       interval, regardless of the timestamp.  Every interval is then
//       receive-before-send, so all zigzag paths are causal and RDT holds
//       trivially.
//
//  * The logical-clock family (the competitors surveyed by Garcia, Vieira &
//    Buzato, "A Rollback in the History of Communication-Induced
//    Checkpointing" — see PAPERS.md) piggybacks its own control words on top
//    of the DV (Message::control; the collector never reads them):
//     - BCS  (Briatico–Ciuffoletti–Simoncini 1984) — one scalar Lamport
//       clock that advances only at checkpoints; force iff the message's
//       clock is ahead.  Ensures Z-cycle freedom (no useless checkpoints)
//       but NOT RDT.
//     - FI   (the scalar core of HMNR's "Fully Informed" protocol, Hélary,
//       Mostefaoui, Netzer & Raynal 1997) — BCS plus two refinements that
//       belong together: the force is skipped when nothing was sent in the
//       current interval, and the clock is Lamport-merged on EVERY delivery
//       (not only at forced checkpoints).  The merge is load-bearing: with
//       BCS clock rules a skipped force lets a stale clock leak into later
//       sends and a Z-cycle slips through; with the merge, clocks are
//       non-decreasing along every surviving zigzag junction and the BCS
//       argument goes through.  Ensures Z-cycle freedom, NOT RDT.  (HMNR's
//       vector refinements weaken the condition further; this is the
//       documented scalar reading, property-tested like the rest.)
//     - FINE (our reading of Luo–Manivannan 2009, after Garcia et al.) — FI
//       with a per-destination weakening: skip the force when the message
//       carries strictly fresher checkpoint-count knowledge for every peer
//       this interval sent to, on the claim that the peer's newer checkpoint
//       breaks the suspect zigzag paths.  Garcia et al. proved the claim
//       FALSE — the newer checkpoint need not dominate the path — and this
//       reading reproduces the flaw: NOT Z-cycle free (see the pinned
//       counterexample in tests/protocol_test.cpp).
//
// FDI, FDAS, and MRS ensure RDT; BCS and FI ensure only Z-cycle freedom;
// Uncoordinated and FINE ensure neither.  All claims are property-tested
// against the zigzag oracle (ccp/zigzag.hpp); the protocols differ in how
// many forced checkpoints they pay (bench T-C and the T-F comparison grid).
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "causality/dependency_vector.hpp"
#include "ccp/observer.hpp"
#include "sim/message.hpp"

namespace rdtgc::ckpt {

enum class ProtocolKind { kUncoordinated, kFdi, kFdas, kMrs, kBcs, kFi, kFine };

/// Every kind, in declaration order — the single source for parameterized
/// tests, benches, and the comparison grid.  A new ProtocolKind must be added
/// here (protocol_test's KindRoster pins the count) and handled in
/// make_protocol, whose switch has no default so -Wswitch flags the omission
/// and the trailing throw names the kind at runtime.
inline constexpr std::array<ProtocolKind, 7> kAllProtocolKinds = {
    ProtocolKind::kUncoordinated, ProtocolKind::kFdi,
    ProtocolKind::kFdas,          ProtocolKind::kMrs,
    ProtocolKind::kBcs,           ProtocolKind::kFi,
    ProtocolKind::kFine};

constexpr const std::array<ProtocolKind, 7>& all_protocol_kinds() {
  return kAllProtocolKinds;
}

/// Forced-checkpoint policy evaluated before delivering a message, plus the
/// protocol's piggybacked control state.
///
/// Lifecycle, as driven by ckpt::Node:
///  * initialize(self, n) once, before any other hook (construction);
///  * on_send fills Message::control for every application send, before the
///    node raises its `sent` flag;
///  * at receipt: must_force is a pure query; a forced checkpoint (with its
///    on_checkpoint(kForced)) happens BEFORE delivery; then on_deliver merges
///    the piggybacked knowledge.  The order matters for the clock family:
///    BCS's forced checkpoint conceptually carries the message's timestamp,
///    which is exactly what "checkpoint first, merge after" produces;
///  * on_checkpoint for every checkpoint, initial/basic/forced alike;
///  * on_rollback at rollback_to.  Control state is volatile: it restarts
///    from zero at a warm attach (a fresh instance is initialized) and is
///    conservatively reset at rollback.  The Z-cycle-freedom guarantees are
///    claimed — and property-tested — for failure-free runs, matching the
///    literature; after a rollback the clocks re-converge through normal
///    merging.
class CheckpointingProtocol {
 public:
  virtual ~CheckpointingProtocol() = default;

  /// Called once before any other hook.  Default: stateless, nothing to do.
  virtual void initialize(ProcessId self, std::size_t process_count);

  /// Number of control words this protocol piggybacks per message (fixed
  /// after initialize; 0 for the DV-only family).
  virtual std::size_t control_words() const { return 0; }

  /// Append exactly control_words() words to `out` (the node hands over the
  /// message's recycled buffer, already cleared).
  virtual void on_send(ProcessId dst, std::vector<sim::ControlWord>& out);

  /// Must the receiver take a forced checkpoint before delivering `m`?
  /// `dv` is the receiver's current vector and `sent_since_checkpoint` its
  /// Algorithm-4 `sent` flag; m.control holds the sender's control words.
  virtual bool must_force(const causality::DependencyVector& dv,
                          const sim::Message& m,
                          bool sent_since_checkpoint) const = 0;

  /// Merge `m`'s piggybacked control knowledge (called on every delivery,
  /// after any forced checkpoint).  Default: nothing piggybacked.
  virtual void on_deliver(const sim::Message& m);

  /// A checkpoint of any kind was taken.  Default: nothing to do.
  virtual void on_checkpoint(ccp::CheckpointKind kind);

  /// The node rolled back to a stable checkpoint.  Default: nothing to do.
  virtual void on_rollback();

  /// True for protocols that guarantee rollback-dependency trackability.
  virtual bool ensures_rdt() const = 0;

  /// True for protocols that guarantee Z-cycle freedom — no checkpoint is
  /// ever useless (§2.3).  RDT implies it, hence the default; the clock
  /// family overrides (BCS/FI ensure it without RDT, FINE ensures neither).
  virtual bool ensures_no_useless() const { return ensures_rdt(); }

  virtual std::string name() const = 0;
};

/// Factory.  Throws util::ContractViolation naming the kind's numeric value
/// on an unhandled ProtocolKind (no silent default path).
std::unique_ptr<CheckpointingProtocol> make_protocol(ProtocolKind kind);

/// For parameterized tests/benches.
std::string protocol_kind_name(ProtocolKind kind);

}  // namespace rdtgc::ckpt
