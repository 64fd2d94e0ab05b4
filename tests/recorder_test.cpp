// Unit tests for the CCP recorder, including rollback (lineage) handling.
#include <gtest/gtest.h>

#include "ccp/recorder.hpp"
#include "util/check.hpp"

namespace rdtgc::ccp {
namespace {

causality::DependencyVector dv3(IntervalIndex a, IntervalIndex b,
                                IntervalIndex c) {
  causality::DependencyVector dv(3);
  dv.at(0) = a;
  dv.at(1) = b;
  dv.at(2) = c;
  return dv;
}

class RecorderTest : public ::testing::Test {
 protected:
  CcpRecorder recorder_{3};

  sim::Message send(ProcessId src, ProcessId dst,
                    const causality::DependencyVector& dv) {
    sim::Message m;
    m.id = recorder_.new_message_id();
    m.src = src;
    m.dst = dst;
    m.dv = dv;
    m.send_interval = dv[src];
    recorder_.record_send(m);
    return m;
  }
};

TEST_F(RecorderTest, RecordsCheckpointsDense) {
  recorder_.record_checkpoint(0, 0, dv3(0, 0, 0), CheckpointKind::kInitial);
  recorder_.record_checkpoint(0, 1, dv3(1, 0, 0), CheckpointKind::kBasic);
  EXPECT_EQ(recorder_.last_stable(0), 1);
  EXPECT_EQ(recorder_.checkpoint_dv(0, 1), dv3(1, 0, 0));
  EXPECT_EQ(recorder_.checkpoint(0, 0).kind, CheckpointKind::kInitial);
  EXPECT_EQ(recorder_.stats().checkpoints_recorded, 2u);
}

TEST_F(RecorderTest, RejectsGappedOrMislabeledCheckpoints) {
  recorder_.record_checkpoint(0, 0, dv3(0, 0, 0), CheckpointKind::kInitial);
  EXPECT_THROW(recorder_.record_checkpoint(0, 2, dv3(2, 0, 0),
                                           CheckpointKind::kBasic),
               util::ContractViolation);
  // dv[p] must equal the index.
  EXPECT_THROW(recorder_.record_checkpoint(0, 1, dv3(5, 0, 0),
                                           CheckpointKind::kBasic),
               util::ContractViolation);
}

TEST_F(RecorderTest, GeneralCheckpointDvCoversVolatile) {
  recorder_.record_checkpoint(0, 0, dv3(0, 0, 0), CheckpointKind::kInitial);
  recorder_.set_volatile_dv(0, dv3(1, 2, 0));
  EXPECT_EQ(recorder_.general_checkpoint_dv(0, 0), dv3(0, 0, 0));
  EXPECT_EQ(recorder_.general_checkpoint_dv(0, 1), dv3(1, 2, 0));  // volatile
  EXPECT_THROW(recorder_.general_checkpoint_dv(0, 2), util::ContractViolation);
}

TEST_F(RecorderTest, MessageLifecycle) {
  recorder_.record_checkpoint(0, 0, dv3(0, 0, 0), CheckpointKind::kInitial);
  recorder_.record_checkpoint(1, 0, dv3(0, 0, 0), CheckpointKind::kInitial);
  sim::Message m = send(0, 1, dv3(1, 0, 0));
  EXPECT_EQ(m.send_serial, 2u);  // after p0's initial checkpoint
  const MessageInfo& info = recorder_.messages()[m.id - 1];
  EXPECT_FALSE(info.delivered);
  recorder_.record_receive(m, 1);
  EXPECT_TRUE(info.delivered);
  EXPECT_TRUE(info.live());
  EXPECT_EQ(info.recv_interval, 1);
}

TEST_F(RecorderTest, ReceiveBeforeSendRejected) {
  sim::Message m;
  m.id = recorder_.new_message_id();
  m.src = 0;
  m.dst = 1;
  EXPECT_THROW(recorder_.record_receive(m, 1), util::ContractViolation);
}

TEST_F(RecorderTest, DoubleReceiveRejected) {
  recorder_.record_checkpoint(0, 0, dv3(0, 0, 0), CheckpointKind::kInitial);
  sim::Message m = send(0, 1, dv3(1, 0, 0));
  recorder_.record_receive(m, 1);
  EXPECT_THROW(recorder_.record_receive(m, 1), util::ContractViolation);
}

TEST_F(RecorderTest, RollbackTruncatesAndMarksMessagesDead) {
  recorder_.record_checkpoint(0, 0, dv3(0, 0, 0), CheckpointKind::kInitial);
  recorder_.record_checkpoint(1, 0, dv3(0, 0, 0), CheckpointKind::kInitial);
  recorder_.record_checkpoint(0, 1, dv3(1, 0, 0), CheckpointKind::kBasic);
  // Sent after s_0^1 (interval 2): dies when p0 rolls back to 1... to 0.
  sim::Message dead = send(0, 1, dv3(2, 0, 0));
  recorder_.record_receive(dead, 1);

  recorder_.record_rollback(0, 0);
  EXPECT_EQ(recorder_.last_stable(0), 0);
  EXPECT_FALSE(recorder_.messages()[dead.id - 1].send_alive);
  EXPECT_FALSE(recorder_.messages()[dead.id - 1].live());
  EXPECT_EQ(recorder_.stats().checkpoints_rolled_back, 1u);
  EXPECT_EQ(recorder_.stats().messages_rolled_back, 1u);
  EXPECT_EQ(recorder_.stats().rollbacks, 1u);
  // The receive side also died?  No: p1 did not roll back, so the receive
  // event survives — this is exactly an orphan and the audit flags it.
  EXPECT_FALSE(recorder_.audit_no_orphans());
}

TEST_F(RecorderTest, RollbackKeepsMessagesBeforeRestoredCheckpointAlive) {
  recorder_.record_checkpoint(0, 0, dv3(0, 0, 0), CheckpointKind::kInitial);
  recorder_.record_checkpoint(1, 0, dv3(0, 0, 0), CheckpointKind::kInitial);
  sim::Message early = send(0, 1, dv3(1, 0, 0));  // interval 1, before s_0^1
  recorder_.record_receive(early, 1);
  recorder_.record_checkpoint(0, 1, dv3(1, 0, 0), CheckpointKind::kBasic);
  recorder_.record_checkpoint(0, 2, dv3(2, 0, 0), CheckpointKind::kBasic);

  // Rolling back to s_0^1 undoes interval-2 events only; the interval-1 send
  // happened before the restored checkpoint and survives.
  recorder_.record_rollback(0, 1);
  EXPECT_TRUE(recorder_.messages()[early.id - 1].live());
  EXPECT_TRUE(recorder_.audit_no_orphans());
}

TEST_F(RecorderTest, RollbackUndoesCurrentIntervalSends) {
  // Rolling back to s_0^0 undoes the interval-1 events (they lie after the
  // restored checkpoint).
  recorder_.record_checkpoint(0, 0, dv3(0, 0, 0), CheckpointKind::kInitial);
  recorder_.record_checkpoint(1, 0, dv3(0, 0, 0), CheckpointKind::kInitial);
  sim::Message m = send(0, 1, dv3(1, 0, 0));
  recorder_.record_rollback(0, 0);
  EXPECT_FALSE(recorder_.messages()[m.id - 1].send_alive);
}

TEST_F(RecorderTest, IndexReuseAfterRollback) {
  recorder_.record_checkpoint(0, 0, dv3(0, 0, 0), CheckpointKind::kInitial);
  recorder_.record_checkpoint(0, 1, dv3(1, 0, 0), CheckpointKind::kBasic);
  recorder_.record_rollback(0, 0);
  // Re-execution reuses index 1; serials stay monotonic.
  recorder_.record_checkpoint(0, 1, dv3(1, 0, 0), CheckpointKind::kBasic);
  EXPECT_EQ(recorder_.last_stable(0), 1);
  EXPECT_GT(recorder_.checkpoint(0, 1).serial, recorder_.checkpoint(0, 0).serial);
}

TEST_F(RecorderTest, RollbackToVolatileOnlyRejected) {
  recorder_.record_checkpoint(0, 0, dv3(0, 0, 0), CheckpointKind::kInitial);
  EXPECT_THROW(recorder_.record_rollback(0, 1), util::ContractViolation);
}

TEST_F(RecorderTest, VolatileDvTracksUpdates) {
  recorder_.set_volatile_dv(2, dv3(0, 1, 3));
  EXPECT_EQ(recorder_.volatile_dv(2), dv3(0, 1, 3));
}

}  // namespace
}  // namespace rdtgc::ccp
