// Per-tenant session state and the capped LRU cache that holds it.
//
// A Session is everything coold keeps warm for one network: the
// deterministically rebuilt Problem (spec -> seeded random network ->
// detection-instance coverage oracle), the planner scratch — one
// reset()-able EvalState per slot, reused across every request the session
// serves (the PR 5 reset() machinery; allocating T fresh oracle states per
// request is the thing the cache exists to avoid) — and the last computed
// schedule plus its mutation counter.
//
// The cache is capped: at most `capacity` resident sessions, least-
// recently-mutated evicted first. Eviction is part of the determinism
// contract — recency advances only on *mutating* requests (schedule /
// replan / repair), in WAL order, and never on status reads, so a restart
// that replays the WAL reproduces the exact same resident set. An evicted
// session is handed back to the caller (kept alive until the batch ends)
// and a later request for that tenant rebuilds it from spec, bit-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/problem.h"
#include "core/schedule.h"
#include "submodular/function.h"
#include "svc/protocol.h"
#include "util/arena.h"

namespace cool::svc {

// Deterministic instance construction — the one true mapping from spec to
// problem, shared by live serving, WAL replay and the tests.
core::Problem make_problem(const NetworkSpec& spec);

class Session {
 public:
  explicit Session(NetworkSpec spec);

  const NetworkSpec& spec() const noexcept { return spec_; }
  const core::Problem& problem() const noexcept { return problem_; }

  // Planner scratch: per-slot oracle states, lazily created by the first
  // planner run (core::detail::prepare_slot_states) and reset() on every
  // subsequent one. Owned here so the allocations amortize across requests.
  std::vector<std::unique_ptr<sub::EvalState>>& scratch_states() noexcept {
    return scratch_;
  }

  // Planner scratch arena for a caller that plans this session on its own:
  // the schedulers reset() and re-carve it per run, so after the first
  // planner call its blocks are warm and every later run is heap-
  // allocation-free (DESIGN.md section 15). CooldService plans on one arena
  // per worker thread instead, so this one stays empty there (an Arena
  // allocates nothing before its first use).
  util::Arena& arena() noexcept { return arena_; }

  const std::optional<core::PeriodicSchedule>& schedule() const noexcept {
    return schedule_;
  }
  void set_schedule(core::PeriodicSchedule schedule);

  // Count of mutations applied (schedule/replan/repair) — part of the
  // recovery-equality contract alongside the schedule bits.
  std::size_t applied() const noexcept { return applied_; }
  void set_applied(std::size_t applied) noexcept { applied_ = applied; }

 private:
  NetworkSpec spec_;
  core::Problem problem_;
  std::vector<std::unique_ptr<sub::EvalState>> scratch_;
  util::Arena arena_;
  std::optional<core::PeriodicSchedule> schedule_;
  std::size_t applied_ = 0;
};

class SessionCache {
 public:
  explicit SessionCache(std::size_t capacity);

  // Read-only lookup — no recency bump (status must not perturb replay).
  Session* find(const std::string& network);

  // Mutating lookup: bumps recency. Returns nullptr when absent.
  Session* touch(const std::string& network);

  // Insert or rebuild, bump recency, then evict past capacity. When the
  // session exists with an equal spec it is reused (scratch stays warm);
  // a changed spec rebuilds it. Evicted sessions are appended to
  // `graveyard` so in-flight batch work holding raw pointers stays valid
  // until the caller drops them.
  Session& emplace(const std::string& network, const NetworkSpec& spec,
                   std::vector<std::unique_ptr<Session>>& graveyard);

  std::size_t size() const noexcept { return entries_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }
  std::uint64_t evictions() const noexcept { return evictions_; }

  // Introspection: hits are warm reuses (touch success or equal-spec
  // emplace), rebuilds are cold constructions (absent or changed spec).
  // Worker-thread counters; the service mirrors them into atomics.
  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t rebuilds() const noexcept { return rebuilds_; }

  // Called with the tenant key of every evicted session (flight-recorder
  // hook; eviction order is deterministic, so the events are too).
  void set_evict_observer(std::function<void(const std::string&)> observer) {
    evict_observer_ = std::move(observer);
  }

  // Snapshot support: entries in name order with their recency stamps, and
  // restore with explicit stamps + clock (so a restart resumes the exact
  // LRU order).
  struct Exported {
    std::string network;
    std::uint64_t recency = 0;
    Session* session = nullptr;
  };
  std::vector<Exported> export_entries();
  void restore(const std::string& network, NetworkSpec spec,
               std::optional<core::PeriodicSchedule> schedule,
               std::size_t applied, std::uint64_t recency);
  std::uint64_t clock() const noexcept { return clock_; }
  void set_clock(std::uint64_t clock) noexcept { clock_ = clock; }

 private:
  void evict_past_capacity(std::vector<std::unique_ptr<Session>>& graveyard);

  struct Entry {
    std::unique_ptr<Session> session;
    std::uint64_t recency = 0;
  };
  std::map<std::string, Entry> entries_;
  std::size_t capacity_;
  std::uint64_t clock_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t rebuilds_ = 0;
  std::function<void(const std::string&)> evict_observer_;
};

}  // namespace cool::svc
