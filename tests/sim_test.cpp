// Tests for the discrete-event simulation kernel: scheduling, virtual time,
// task composition, synchronization primitives, determinism.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/time.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace wiera::sim {
namespace {

// ------------------------------------------------------------ basics

Task<void> note_at(Simulation& sim, Duration d, std::vector<int64_t>& log) {
  co_await sim.delay(d);
  log.push_back(sim.now().us());
}

TEST(SimulationTest, DelayAdvancesVirtualClock) {
  Simulation sim;
  std::vector<int64_t> log;
  sim.spawn(note_at(sim, msec(10), log));
  sim.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], 10000);
  EXPECT_EQ(sim.now().us(), 10000);
}

TEST(SimulationTest, EventsRunInTimeOrder) {
  Simulation sim;
  std::vector<int64_t> log;
  sim.spawn(note_at(sim, msec(30), log));
  sim.spawn(note_at(sim, msec(10), log));
  sim.spawn(note_at(sim, msec(20), log));
  sim.run();
  EXPECT_EQ(log, (std::vector<int64_t>{10000, 20000, 30000}));
}

Task<void> tag(std::vector<std::string>& log, std::string name) {
  log.push_back(std::move(name));
  co_return;
}

TEST(SimulationTest, SameTimeEventsRunInSpawnOrder) {
  Simulation sim;
  std::vector<std::string> log;
  sim.spawn(tag(log, "a"));
  sim.spawn(tag(log, "b"));
  sim.spawn(tag(log, "c"));
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SimulationTest, RunUntilStopsAtBoundaryInclusive) {
  Simulation sim;
  std::vector<int64_t> log;
  sim.spawn(note_at(sim, msec(10), log));
  sim.spawn(note_at(sim, msec(20), log));
  sim.spawn(note_at(sim, msec(30), log));
  sim.run_until(TimePoint(20000));
  EXPECT_EQ(log, (std::vector<int64_t>{10000, 20000}));
  EXPECT_EQ(sim.now().us(), 20000);
  sim.run();
  EXPECT_EQ(log.size(), 3u);
}

TEST(SimulationTest, RunUntilAdvancesClockEvenWithEmptyQueue) {
  Simulation sim;
  sim.run_until(TimePoint(5000));
  EXPECT_EQ(sim.now().us(), 5000);
}

Task<void> stopper(Simulation& sim, Duration d) {
  co_await sim.delay(d);
  sim.stop();
}

TEST(SimulationTest, StopHaltsRun) {
  Simulation sim;
  std::vector<int64_t> log;
  sim.spawn(stopper(sim, msec(15)));
  sim.spawn(note_at(sim, msec(10), log));
  sim.spawn(note_at(sim, msec(20), log));
  sim.run();
  EXPECT_EQ(log, (std::vector<int64_t>{10000}));
}

TEST(SimulationTest, ZeroDelayDoesNotSuspendTime) {
  Simulation sim;
  std::vector<int64_t> log;
  sim.spawn(note_at(sim, Duration::zero(), log));
  sim.run();
  EXPECT_EQ(log, (std::vector<int64_t>{0}));
}

TEST(SimulationTest, EventsExecutedCounter) {
  Simulation sim;
  std::vector<int64_t> log;
  sim.spawn(note_at(sim, msec(1), log));
  sim.run();
  EXPECT_GE(sim.events_executed(), 2u);  // spawn-start + delay resume
}

// ------------------------------------------------------------ task composition

Task<int> value_after(Simulation& sim, Duration d, int v) {
  co_await sim.delay(d);
  co_return v;
}

Task<void> await_child(Simulation& sim, int& out) {
  out = co_await value_after(sim, msec(5), 17);
  out += co_await value_after(sim, msec(5), 3);
}

TEST(TaskTest, ChildTasksReturnValuesAndTakeTime) {
  Simulation sim;
  int out = 0;
  sim.spawn(await_child(sim, out));
  sim.run();
  EXPECT_EQ(out, 20);
  EXPECT_EQ(sim.now().us(), 10000);  // sequential awaits add up
}

Task<std::string> immediate(std::string v) { co_return v; }

Task<void> await_immediate(std::string& out) {
  out = co_await immediate("done");
}

TEST(TaskTest, ImmediateCompletionWorks) {
  Simulation sim;
  std::string out;
  sim.spawn(await_immediate(out));
  sim.run();
  EXPECT_EQ(out, "done");
  EXPECT_EQ(sim.now().us(), 0);
}

Task<void> deep(Simulation& sim, int depth, int& counter) {
  if (depth == 0) {
    counter++;
    co_return;
  }
  co_await sim.delay(usec(1));
  co_await deep(sim, depth - 1, counter);
}

TEST(TaskTest, DeepAwaitChains) {
  Simulation sim;
  int counter = 0;
  sim.spawn(deep(sim, 500, counter));
  sim.run();
  EXPECT_EQ(counter, 1);
  EXPECT_EQ(sim.now().us(), 500);
}

TEST(SimulationTest, DestructionReclaimsSuspendedTasks) {
  // A task suspended forever must be destroyed with the simulation without
  // leaking or crashing.
  auto leak_check = [] {
    Simulation sim;
    std::vector<int64_t> log;
    sim.spawn(note_at(sim, hoursd(10), log));
    sim.run_until(TimePoint(1000));
    EXPECT_TRUE(log.empty());
    // sim destructor runs here with the task still suspended
  };
  leak_check();
  SUCCEED();
}

// ------------------------------------------------------------ when_all

TEST(WhenAllTest, RunsConcurrentlyInVirtualTime) {
  Simulation sim;
  std::vector<int> results;
  int64_t finish_us = -1;
  auto driver = [](Simulation& s, std::vector<int>& out,
                   int64_t& finish) -> Task<void> {
    std::vector<Task<int>> tasks;
    tasks.push_back(value_after(s, msec(30), 1));
    tasks.push_back(value_after(s, msec(10), 2));
    tasks.push_back(value_after(s, msec(20), 3));
    out = co_await when_all(s, std::move(tasks));
    finish = s.now().us();
  };
  sim.spawn(driver(sim, results, finish_us));
  sim.run();
  EXPECT_EQ(results, (std::vector<int>{1, 2, 3}));  // input order preserved
  EXPECT_EQ(finish_us, 30000);  // max, not sum: tasks ran concurrently
}

Task<void> void_sleeper(Simulation& sim, Duration d, int& counter) {
  co_await sim.delay(d);
  counter++;
}

TEST(WhenAllTest, VoidOverloadJoinsAll) {
  Simulation sim;
  int counter = 0;
  int64_t finish_us = -1;
  auto driver = [](Simulation& s, int& c, int64_t& finish) -> Task<void> {
    std::vector<Task<void>> tasks;
    tasks.push_back(void_sleeper(s, msec(30), c));
    tasks.push_back(void_sleeper(s, msec(10), c));
    tasks.push_back(void_sleeper(s, msec(20), c));
    co_await when_all(s, std::move(tasks));
    finish = s.now().us();
  };
  sim.spawn(driver(sim, counter, finish_us));
  sim.run();
  EXPECT_EQ(counter, 3);
  EXPECT_EQ(finish_us, 30000);  // concurrent, not sequential

  // Empty batch completes immediately.
  bool done = false;
  auto empty_driver = [](Simulation& s, bool& flag) -> Task<void> {
    co_await when_all(s, std::vector<Task<void>>{});
    flag = true;
  };
  sim.spawn(empty_driver(sim, done));
  sim.run();
  EXPECT_TRUE(done);
}

TEST(WhenAllTest, EmptyVectorCompletesImmediately) {
  Simulation sim;
  bool done = false;
  auto driver = [](Simulation& s, bool& flag) -> Task<void> {
    auto results = co_await when_all(s, std::vector<Task<int>>{});
    flag = results.empty();
  };
  sim.spawn(driver(sim, done));
  sim.run();
  EXPECT_TRUE(done);
}

// ------------------------------------------------------------ Event

Task<void> waiter(Event& e, Simulation& sim, std::vector<int64_t>& log) {
  co_await e.wait();
  log.push_back(sim.now().us());
}

Task<void> setter(Event& e, Simulation& sim, Duration d) {
  co_await sim.delay(d);
  e.set();
}

TEST(EventTest, WaitersWakeWhenSet) {
  Simulation sim;
  Event e(sim);
  std::vector<int64_t> log;
  sim.spawn(waiter(e, sim, log));
  sim.spawn(waiter(e, sim, log));
  sim.spawn(setter(e, sim, msec(7)));
  sim.run();
  EXPECT_EQ(log, (std::vector<int64_t>{7000, 7000}));
}

TEST(EventTest, SetBeforeWaitPassesThrough) {
  Simulation sim;
  Event e(sim);
  e.set();
  std::vector<int64_t> log;
  sim.spawn(waiter(e, sim, log));
  sim.run();
  EXPECT_EQ(log, (std::vector<int64_t>{0}));
}

TEST(EventTest, ResetBlocksAgain) {
  Simulation sim;
  Event e(sim);
  e.set();
  e.reset();
  std::vector<int64_t> log;
  sim.spawn(waiter(e, sim, log));
  sim.run_until(TimePoint(1000));
  EXPECT_TRUE(log.empty());
}

// ------------------------------------------------------------ SimMutex

Task<void> critical(SimMutex& m, Simulation& sim, Duration hold,
                    std::vector<std::pair<int64_t, int64_t>>& spans) {
  co_await m.lock();
  const int64_t start = sim.now().us();
  co_await sim.delay(hold);
  spans.emplace_back(start, sim.now().us());
  m.unlock();
}

TEST(SimMutexTest, SerializesCriticalSectionsFifo) {
  Simulation sim;
  SimMutex m(sim);
  std::vector<std::pair<int64_t, int64_t>> spans;
  for (int i = 0; i < 3; ++i) sim.spawn(critical(m, sim, msec(10), spans));
  sim.run();
  ASSERT_EQ(spans.size(), 3u);
  // No overlap, FIFO order.
  EXPECT_EQ(spans[0], (std::pair<int64_t, int64_t>{0, 10000}));
  EXPECT_EQ(spans[1], (std::pair<int64_t, int64_t>{10000, 20000}));
  EXPECT_EQ(spans[2], (std::pair<int64_t, int64_t>{20000, 30000}));
}

TEST(SimMutexTest, UncontendedLockIsImmediate) {
  Simulation sim;
  SimMutex m(sim);
  std::vector<std::pair<int64_t, int64_t>> spans;
  sim.spawn(critical(m, sim, Duration::zero(), spans));
  sim.run();
  EXPECT_FALSE(m.locked());
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].first, 0);
}

// ------------------------------------------------------------ SimSemaphore

Task<void> sem_user(SimSemaphore& s, Simulation& sim, Duration hold,
                    int& active, int& max_active) {
  co_await s.acquire();
  active++;
  max_active = std::max(max_active, active);
  co_await sim.delay(hold);
  active--;
  s.release();
}

TEST(SimSemaphoreTest, LimitsConcurrency) {
  Simulation sim;
  SimSemaphore s(sim, 2);
  int active = 0, max_active = 0;
  for (int i = 0; i < 6; ++i) {
    sim.spawn(sem_user(s, sim, msec(5), active, max_active));
  }
  sim.run();
  EXPECT_EQ(max_active, 2);
  EXPECT_EQ(active, 0);
  EXPECT_EQ(sim.now().us(), 15000);  // 6 users / 2 slots * 5ms
}

TEST(SimSemaphoreTest, ReleaseMultiple) {
  Simulation sim;
  SimSemaphore s(sim, 0);
  int active = 0, max_active = 0;
  for (int i = 0; i < 3; ++i) {
    sim.spawn(sem_user(s, sim, msec(1), active, max_active));
  }
  sim.run_until(TimePoint(100));
  EXPECT_EQ(max_active, 0);  // all blocked
  s.release(3);
  sim.run();
  EXPECT_EQ(max_active, 3);
}

// ------------------------------------------------------------ Channel

Task<void> consumer(Channel<int>& ch, std::vector<int>& out) {
  while (true) {
    auto item = co_await ch.recv();
    if (!item) break;
    out.push_back(*item);
  }
}

Task<void> producer(Channel<int>& ch, Simulation& sim, int n) {
  for (int i = 0; i < n; ++i) {
    co_await sim.delay(msec(1));
    ch.send(i);
  }
  ch.close();
}

TEST(ChannelTest, DeliversInOrderAndTerminatesOnClose) {
  Simulation sim;
  Channel<int> ch(sim);
  std::vector<int> out;
  sim.spawn(consumer(ch, out));
  sim.spawn(producer(ch, sim, 5));
  sim.run();
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ChannelTest, BufferedSendsBeforeReceiver) {
  Simulation sim;
  Channel<int> ch(sim);
  ch.send(1);
  ch.send(2);
  ch.close();
  std::vector<int> out;
  sim.spawn(consumer(ch, out));
  sim.run();
  EXPECT_EQ(out, (std::vector<int>{1, 2}));
}

TEST(ChannelTest, TryRecvNonBlocking) {
  Simulation sim;
  Channel<int> ch(sim);
  EXPECT_FALSE(ch.try_recv().has_value());
  ch.send(9);
  auto v = ch.try_recv();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 9);
}

TEST(ChannelTest, WokenReceiverKeepsItsItemWhenTheSenderTriesToReceive) {
  Simulation sim;
  Channel<int> ch(sim, "ch.demo");
  std::optional<int> got;
  bool closed_when_woken = true;
  std::optional<int> taken_by_sender;
  auto receiver = [](Channel<int>* c, std::optional<int>* out,
                     bool* closed) -> Task<void> {
    *out = co_await c->recv();
    *closed = c->closed();
  };
  auto sender = [](Simulation* s, Channel<int>* c,
                   std::optional<int>* taken) -> Task<void> {
    co_await s->delay(msec(1));
    c->send(7);
    // Same event: the receiver this send woke has not run yet.
    *taken = c->try_recv();
  };
  sim.spawn(receiver(&ch, &got, &closed_when_woken));
  sim.spawn(sender(&sim, &ch, &taken_by_sender));
  sim.run();
  ASSERT_TRUE(got.has_value()) << "an open channel's receiver got nullopt";
  EXPECT_EQ(*got, 7);
  EXPECT_FALSE(taken_by_sender.has_value());
  EXPECT_FALSE(closed_when_woken);
}

TEST(ChannelTest, MultipleConsumersEachGetItems) {
  Simulation sim;
  Channel<int> ch(sim);
  std::vector<int> out1, out2;
  sim.spawn(consumer(ch, out1));
  sim.spawn(consumer(ch, out2));
  sim.spawn(producer(ch, sim, 10));
  sim.run();
  EXPECT_EQ(out1.size() + out2.size(), 10u);
}

// ------------------------------------------------------------ Future/Promise

Task<void> fulfil_later(Simulation& sim, Promise<int> p, Duration d, int v) {
  co_await sim.delay(d);
  p.set_value(v);
}

Task<void> await_future(Future<int> f, Simulation& sim, int& out,
                        int64_t& when) {
  out = co_await f;
  when = sim.now().us();
}

TEST(FutureTest, AwaitBlocksUntilFulfilled) {
  Simulation sim;
  Promise<int> p(sim);
  int out = 0;
  int64_t when = -1;
  sim.spawn(await_future(p.future(), sim, out, when));
  sim.spawn(fulfil_later(sim, p, msec(42), 99));
  sim.run();
  EXPECT_EQ(out, 99);
  EXPECT_EQ(when, 42000);
}

TEST(FutureTest, AlreadyFulfilledIsImmediate) {
  Simulation sim;
  Promise<int> p(sim);
  p.set_value(5);
  int out = 0;
  int64_t when = -1;
  sim.spawn(await_future(p.future(), sim, out, when));
  sim.run();
  EXPECT_EQ(out, 5);
  EXPECT_EQ(when, 0);
}

TEST(FutureTest, MultipleAwaitersAllGetValue) {
  Simulation sim;
  Promise<int> p(sim);
  int out1 = 0, out2 = 0;
  int64_t w1, w2;
  sim.spawn(await_future(p.future(), sim, out1, w1));
  sim.spawn(await_future(p.future(), sim, out2, w2));
  sim.spawn(fulfil_later(sim, p, msec(1), 7));
  sim.run();
  EXPECT_EQ(out1, 7);
  EXPECT_EQ(out2, 7);
}

// ------------------------------------------------------------ edge cases

TEST(WhenAllTest, EmptyVectorDoesNotAdvanceTimeAndIsRepeatable) {
  Simulation sim;
  int completions = 0;
  auto driver = [](Simulation& s, int& done) -> Task<void> {
    auto r1 = co_await when_all(s, std::vector<Task<int>>{});
    co_await when_all(s, std::vector<Task<void>>{});
    auto r2 = co_await when_all(s, std::vector<Task<int>>{});
    done = static_cast<int>(r1.size() + r2.size()) + 1;
  };
  sim.spawn(driver(sim, completions));
  sim.run();
  EXPECT_EQ(completions, 1);       // both empty result vectors
  EXPECT_EQ(sim.now().us(), 0);    // nothing scheduled, no time passed
}

TEST(ChannelTest, CloseWakesAllPendingReceiversWithNullopt) {
  Simulation sim;
  Channel<int> ch(sim);
  int woken = 0;
  std::vector<int64_t> wake_times;
  auto rx = [](Channel<int>* c, Simulation* s, int& n,
               std::vector<int64_t>& t) -> Task<void> {
    auto item = co_await c->recv();
    EXPECT_FALSE(item.has_value());  // closed, nothing buffered
    n++;
    t.push_back(s->now().us());
  };
  sim.spawn(rx(&ch, &sim, woken, wake_times));
  sim.spawn(rx(&ch, &sim, woken, wake_times));
  sim.run_until(TimePoint(3000));  // both receivers are now blocked
  EXPECT_EQ(woken, 0);
  ch.close();
  sim.run();
  EXPECT_EQ(woken, 2);
  EXPECT_EQ(wake_times, (std::vector<int64_t>{3000, 3000}));
}

TEST(SimSemaphoreTest, ReleaseZeroIsANoOp) {
  Simulation sim;
  SimSemaphore s(sim, 0);
  int acquired = 0;
  auto user = [](SimSemaphore* sem, int& n) -> Task<void> {
    co_await sem->acquire();
    n++;
  };
  sim.spawn(user(&s, acquired));
  sim.run();
  EXPECT_EQ(acquired, 0);  // blocked
  s.release(0);
  sim.run();
  EXPECT_EQ(acquired, 0);  // release(0) woke nobody, added no tokens
  EXPECT_EQ(s.available(), 0);
  s.release(1);
  sim.run();
  EXPECT_EQ(acquired, 1);
}

TEST(EventTest, ResetRacingReWaitInVirtualTime) {
  Simulation sim;
  Event e(sim);
  std::vector<std::string> log;
  // Waiter A is already suspended when set() fires; reset() at the same
  // virtual instant must not revoke A's scheduled wakeup, but a fresh
  // waiter B arriving after the reset must block.
  auto wait_and_log = [](Event* ev, std::vector<std::string>* out,
                         std::string tag) -> Task<void> {
    co_await ev->wait();
    out->push_back(std::move(tag));
  };
  sim.spawn(wait_and_log(&e, &log, "A"));
  sim.run_until(TimePoint(1000));
  e.set();
  e.reset();  // same virtual time as set(): A's wakeup is already queued
  sim.spawn(wait_and_log(&e, &log, "B"));
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"A"}));  // B still blocked
  EXPECT_FALSE(e.is_set());
  e.set();
  sim.run();
  EXPECT_EQ(log, (std::vector<std::string>{"A", "B"}));
}

// ------------------------------------------------------------ determinism

Task<void> jitter_worker(Simulation& sim, std::vector<int64_t>& log, int n) {
  for (int i = 0; i < n; ++i) {
    co_await sim.delay(usec(static_cast<int64_t>(sim.rng().uniform(100, 900))));
    log.push_back(sim.now().us());
  }
}

std::vector<int64_t> run_jitter(uint64_t seed) {
  Simulation sim(seed);
  std::vector<int64_t> log;
  for (int w = 0; w < 4; ++w) sim.spawn(jitter_worker(sim, log, 25));
  sim.run();
  return log;
}

TEST(DeterminismTest, SameSeedSameTrace) {
  EXPECT_EQ(run_jitter(7), run_jitter(7));
}

TEST(DeterminismTest, DifferentSeedDifferentTrace) {
  EXPECT_NE(run_jitter(7), run_jitter(8));
}

// Property-style sweep: FIFO mutex fairness holds for many contender counts.
class MutexFairness : public ::testing::TestWithParam<int> {};

TEST_P(MutexFairness, AllContendersServedInOrder) {
  const int n = GetParam();
  Simulation sim;
  SimMutex m(sim);
  std::vector<std::pair<int64_t, int64_t>> spans;
  for (int i = 0; i < n; ++i) sim.spawn(critical(m, sim, msec(2), spans));
  sim.run();
  ASSERT_EQ(spans.size(), static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(spans[static_cast<size_t>(i)].first, i * 2000);
  }
}

INSTANTIATE_TEST_SUITE_P(Contention, MutexFairness,
                         ::testing::Values(1, 2, 5, 16, 64));

}  // namespace
}  // namespace wiera::sim
