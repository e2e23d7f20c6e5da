// WAL + snapshot durability primitives: append/read round trips, torn-tail
// tolerance, snapshot lsn floors, and atomic snapshot replacement.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "svc/wal.h"

namespace cool {
namespace {

class SvcWalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "cool-wal-" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    ::mkdir(dir_.c_str(), 0755);  // raw-write tests need it before WalWriter
    std::remove(svc::wal_path(dir_).c_str());
    std::remove(svc::snapshot_path(dir_).c_str());
  }

  svc::WalEntry make_entry(std::uint64_t lsn, const std::string& network) {
    svc::WalEntry entry;
    entry.lsn = lsn;
    entry.degrade = static_cast<int>(lsn % 3);
    entry.request.id = "r" + std::to_string(lsn);
    entry.request.type = svc::RequestType::kSchedule;
    entry.request.network = network;
    entry.request.has_spec = true;
    entry.request.spec.sensors = 10;
    entry.request.spec.targets = 15;
    entry.request.spec.seed = lsn;
    return entry;
  }

  void append_raw(const std::string& text) {
    std::ofstream out(svc::wal_path(dir_), std::ios::app);
    out << text;
  }

  std::string dir_;
};

TEST_F(SvcWalTest, EmptyDirRecoversToEmptyState) {
  const svc::WalRecovery recovery = svc::read_wal_dir(dir_);
  EXPECT_FALSE(recovery.snapshot_present);
  EXPECT_TRUE(recovery.entries.empty());
  EXPECT_EQ(recovery.max_lsn, 0u);
  EXPECT_EQ(recovery.torn_bytes, 0u);
}

TEST_F(SvcWalTest, AppendedEntriesRoundTrip) {
  {
    svc::WalWriter writer(dir_, /*fsync_enabled=*/false);
    writer.append(make_entry(1, "t1"));
    writer.append(make_entry(2, "t2"));
    writer.append(make_entry(3, "t1"));
    writer.sync();
  }
  const svc::WalRecovery recovery = svc::read_wal_dir(dir_);
  ASSERT_EQ(recovery.entries.size(), 3u);
  EXPECT_EQ(recovery.max_lsn, 3u);
  EXPECT_EQ(recovery.entries[0].lsn, 1u);
  EXPECT_EQ(recovery.entries[1].request.network, "t2");
  EXPECT_EQ(recovery.entries[2].degrade, 0);
  EXPECT_EQ(recovery.entries[2].request.spec.seed, 3u);
  EXPECT_EQ(recovery.torn_bytes, 0u);
}

TEST_F(SvcWalTest, TornTailIsDroppedAndCounted) {
  {
    svc::WalWriter writer(dir_, false);
    writer.append(make_entry(1, "t1"));
    writer.append(make_entry(2, "t2"));
    writer.sync();
  }
  // Simulate a SIGKILL mid-append: a truncated third line.
  const std::string torn = "{\"lsn\":3,\"degrade\":0,\"req\":{\"type\":\"re";
  append_raw(torn);

  const svc::WalRecovery recovery = svc::read_wal_dir(dir_);
  ASSERT_EQ(recovery.entries.size(), 2u) << "torn entry must not replay";
  EXPECT_EQ(recovery.max_lsn, 2u);
  EXPECT_GE(recovery.torn_bytes, torn.size());
}

TEST_F(SvcWalTest, ReaderStopsAtNonMonotoneLsn) {
  {
    svc::WalWriter writer(dir_, false);
    writer.append(make_entry(5, "t1"));
    writer.append(make_entry(6, "t2"));
    writer.append(make_entry(4, "t3"));  // regression: must stop here
    writer.append(make_entry(7, "t4"));  // unreachable past the bad entry
  }
  const svc::WalRecovery recovery = svc::read_wal_dir(dir_);
  ASSERT_EQ(recovery.entries.size(), 2u);
  EXPECT_EQ(recovery.max_lsn, 6u);
  EXPECT_GT(recovery.torn_bytes, 0u);
}

TEST_F(SvcWalTest, BadLsnOrDegradeEndsReplayLikeATornLine) {
  // Each bad value ends replay like a torn line: a cast of -3 or 1e300 is
  // undefined behaviour, and "degrade":7 must not replay at the floor.
  const std::string good = make_entry(2, "t2").to_line();  // degrade 2
  const std::string head = "{\"lsn\":2,\"degrade\":2,";
  ASSERT_EQ(good.rfind(head, 0), 0u);
  const std::string body = good.substr(head.size());
  for (const char* fields :
       {"\"lsn\":-3,\"degrade\":0,", "\"lsn\":1e300,\"degrade\":0,",
        "\"lsn\":2.5,\"degrade\":0,", "\"lsn\":2,\"degrade\":1e300,",
        "\"lsn\":2,\"degrade\":7.5,", "\"lsn\":2,\"degrade\":7,",
        "\"lsn\":2,\"degrade\":-1,", "\"lsn\":2,\"degrade\":\"0\","}) {
    std::remove(svc::wal_path(dir_).c_str());
    const std::string bad = "{" + std::string(fields) + body;
    const std::string after = make_entry(3, "t3").to_line();
    {
      svc::WalWriter writer(dir_, false);
      writer.append(make_entry(1, "t1"));
    }
    append_raw(bad + "\n" + after + "\n");
    const svc::WalRecovery recovery = svc::read_wal_dir(dir_);
    ASSERT_EQ(recovery.entries.size(), 1u) << bad;
    EXPECT_EQ(recovery.max_lsn, 1u) << bad;
    EXPECT_EQ(recovery.torn_bytes, bad.size() + 1 + after.size() + 1) << bad;
  }
}

TEST_F(SvcWalTest, SnapshotLsnFiltersOlderEntries) {
  svc::write_snapshot_atomic(dir_, "{\"schema_version\":1,\"lsn\":2,\"clock\":9,\"sessions\":[]}");
  {
    svc::WalWriter writer(dir_, false);
    writer.append(make_entry(1, "t1"));
    writer.append(make_entry(2, "t2"));
    writer.append(make_entry(3, "t3"));
  }
  const svc::WalRecovery recovery = svc::read_wal_dir(dir_);
  EXPECT_TRUE(recovery.snapshot_present);
  EXPECT_EQ(recovery.snapshot_lsn, 2u);
  ASSERT_EQ(recovery.entries.size(), 1u) << "entries <= snapshot lsn are redundant";
  EXPECT_EQ(recovery.entries[0].lsn, 3u);
  EXPECT_EQ(recovery.max_lsn, 3u);
}

TEST_F(SvcWalTest, MalformedSnapshotIsTreatedAsAbsent) {
  {
    svc::WalWriter writer(dir_, false);
    writer.append(make_entry(1, "t1"));
  }
  for (const char* snapshot :
       {"{\"schema_version\":1,\"lsn\":2,",  // truncated mid-write
        "{\"schema_version\":1,\"lsn\":-2,\"sessions\":[]}",
        "{\"schema_version\":1,\"lsn\":1e300,\"sessions\":[]}"}) {
    {
      std::ofstream out(svc::snapshot_path(dir_));
      out << snapshot;
    }
    const svc::WalRecovery recovery = svc::read_wal_dir(dir_);
    EXPECT_FALSE(recovery.snapshot_present) << snapshot;
    EXPECT_GT(recovery.torn_bytes, 0u) << snapshot;
    ASSERT_EQ(recovery.entries.size(), 1u)
        << "full WAL replays without a snapshot floor: " << snapshot;
  }
}

TEST_F(SvcWalTest, SnapshotWriteReplacesAtomically) {
  svc::write_snapshot_atomic(dir_, "{\"schema_version\":1,\"lsn\":1,\"clock\":1,\"sessions\":[]}");
  svc::write_snapshot_atomic(dir_, "{\"schema_version\":1,\"lsn\":9,\"clock\":4,\"sessions\":[]}");
  const svc::WalRecovery recovery = svc::read_wal_dir(dir_);
  EXPECT_TRUE(recovery.snapshot_present);
  EXPECT_EQ(recovery.snapshot_lsn, 9u);
  // No stray tmp file left behind.
  std::ifstream tmp(svc::snapshot_path(dir_) + ".tmp");
  EXPECT_FALSE(tmp.good());
}

TEST_F(SvcWalTest, ResetToEmptyTruncates) {
  svc::WalWriter writer(dir_, false);
  writer.append(make_entry(1, "t1"));
  writer.sync();
  writer.reset_to_empty();
  const svc::WalRecovery recovery = svc::read_wal_dir(dir_);
  EXPECT_TRUE(recovery.entries.empty());
  // The writer keeps working after a truncate.
  writer.append(make_entry(2, "t2"));
  writer.sync();
  const svc::WalRecovery after = svc::read_wal_dir(dir_);
  ASSERT_EQ(after.entries.size(), 1u);
  EXPECT_EQ(after.entries[0].lsn, 2u);
}

TEST_F(SvcWalTest, WalLineIsCanonicalRequestJson) {
  const svc::WalEntry entry = make_entry(12, "tenant");
  const std::string line = entry.to_line();
  EXPECT_EQ(line.find("{\"lsn\":12,\"degrade\":0,\"req\":"), 0u);
  EXPECT_NE(line.find(entry.request.to_json()), std::string::npos);
}

}  // namespace
}  // namespace cool
