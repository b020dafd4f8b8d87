/// Wire-format tests: the white-paper byte-array request layout, builder
/// composition, bounds-checked parsing, and malformed-buffer rejection.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>

#include "collector/message.hpp"
#include "tool/client2.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// Count every heap allocation in this binary (the allocation-free query
// test below reads the counter around one call). Replacement allocation
// functions pair malloc with free, which GCC cannot see through.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace orca::collector;

void dummy_callback(OMP_COLLECTORAPI_EVENT) {}

TEST(MessageBuilder, SingleRequestLayout) {
  MessageBuilder builder;
  const std::size_t idx = builder.add(OMP_REQ_START);
  EXPECT_EQ(idx, 0u);
  void* buf = builder.buffer();
  ASSERT_NE(buf, nullptr);

  omp_collector_message header{};
  std::memcpy(&header, buf, kRecordHeaderSize);
  EXPECT_EQ(header.r_req, OMP_REQ_START);
  EXPECT_GE(header.sz, static_cast<int>(kRecordHeaderSize));
  EXPECT_EQ(header.r_errcode, OMP_ERRCODE_OK);
  EXPECT_EQ(header.r_sz, 0);

  // Terminator (sz == 0) follows the record.
  int term_sz = 123;
  std::memcpy(&term_sz, static_cast<char*>(buf) + header.sz, sizeof(int));
  EXPECT_EQ(term_sz, 0);
}

TEST(MessageBuilder, RegisterCarriesEventAndCallback) {
  MessageBuilder builder;
  builder.add_register(OMP_EVENT_FORK, &dummy_callback);
  MessageCursor cursor(builder.buffer());
  ASSERT_TRUE(cursor.valid());

  int event = 0;
  OMP_COLLECTORAPI_CALLBACK cb = nullptr;
  ASSERT_TRUE(cursor.read_payload(&event, sizeof(event)));
  ASSERT_TRUE(cursor.read_payload(&cb, sizeof(cb), sizeof(event)));
  EXPECT_EQ(event, OMP_EVENT_FORK);
  EXPECT_EQ(cb, &dummy_callback);
}

TEST(MessageBuilder, MultipleRecordsWalkInOrder) {
  MessageBuilder builder;
  builder.add(OMP_REQ_START);
  builder.add_register(OMP_EVENT_JOIN, &dummy_callback);
  builder.add_state_query();
  builder.add(OMP_REQ_STOP);

  MessageCursor cursor(builder.buffer());
  std::vector<OMP_COLLECTORAPI_REQUEST> seen;
  while (!cursor.at_terminator()) {
    ASSERT_TRUE(cursor.valid());
    seen.push_back(cursor.record()->r_req);
    cursor.advance();
  }
  EXPECT_EQ(seen, (std::vector<OMP_COLLECTORAPI_REQUEST>{
                      OMP_REQ_START, OMP_REQ_REGISTER, OMP_REQ_STATE,
                      OMP_REQ_STOP}));
}

TEST(MessageBuilder, BufferReusableAfterAppending) {
  MessageBuilder builder;
  builder.add(OMP_REQ_START);
  (void)builder.buffer();          // terminates
  builder.add(OMP_REQ_STOP);       // must strip the old terminator
  MessageCursor cursor(builder.buffer());
  int count = 0;
  while (!cursor.at_terminator()) {
    ++count;
    cursor.advance();
  }
  EXPECT_EQ(count, 2);
  EXPECT_EQ(builder.count(), 2u);
}

TEST(MessageCursor, WriteReplySetsSizeHighWaterMark) {
  MessageBuilder builder;
  builder.add_state_query();
  MessageCursor cursor(builder.buffer());

  const int state = THR_WORK_STATE;
  const unsigned long wait_id = 17;
  ASSERT_TRUE(cursor.write_reply(&state, sizeof(state)));
  ASSERT_TRUE(cursor.write_reply(&wait_id, sizeof(wait_id), sizeof(state)));
  EXPECT_EQ(cursor.record()->r_sz,
            static_cast<int>(sizeof(state) + sizeof(wait_id)));

  int got_state = 0;
  unsigned long got_wait = 0;
  EXPECT_TRUE(builder.reply_value(0, &got_state));
  EXPECT_TRUE(builder.reply_value(0, &got_wait, sizeof(int)));
  EXPECT_EQ(got_state, THR_WORK_STATE);
  EXPECT_EQ(got_wait, 17ul);
}

TEST(MessageCursor, ReplyOverflowSetsMemTooSmall) {
  MessageBuilder builder;
  builder.add(OMP_REQ_CURRENT_PRID);  // zero-capacity record
  MessageCursor cursor(builder.buffer());
  unsigned long id = 1;
  EXPECT_FALSE(cursor.write_reply(&id, sizeof(id)));
  EXPECT_EQ(cursor.record()->r_errcode, OMP_ERRCODE_MEM_TOO_SMALL);
}

TEST(MessageCursor, PayloadReadIsBoundsChecked) {
  MessageBuilder builder;
  builder.add_unregister(OMP_EVENT_FORK);  // payload: one int
  MessageCursor cursor(builder.buffer());
  long long too_big = 0;
  // Reading past the record's declared capacity must fail, not overrun.
  EXPECT_FALSE(cursor.read_payload(&too_big, sizeof(too_big),
                                   cursor.payload_capacity()));
}

TEST(MessageCursor, MalformedSizeRejected) {
  // A record claiming a size smaller than the header is invalid.
  alignas(omp_collector_message) char buf[64] = {};
  omp_collector_message header{};
  header.sz = 4;  // < header size, nonzero
  header.r_req = OMP_REQ_START;
  std::memcpy(buf, &header, kRecordHeaderSize);
  MessageCursor cursor(buf);
  EXPECT_FALSE(cursor.valid());
  EXPECT_FALSE(cursor.at_terminator());
  EXPECT_FALSE(cursor.advance());
}

TEST(MessageBuilder, ReplyValueFailsWithoutReply) {
  MessageBuilder builder;
  builder.add_id_query(OMP_REQ_CURRENT_PRID);
  unsigned long id = 0;
  // No reply written yet: r_sz is 0.
  EXPECT_FALSE(builder.reply_value(0, &id));
}

TEST(MessageBuilder, RecordsAreAligned) {
  MessageBuilder builder;
  builder.add_unregister(OMP_EVENT_FORK);  // 4-byte payload
  builder.add_register(OMP_EVENT_JOIN, &dummy_callback);
  MessageCursor cursor(builder.buffer());
  // After the first (odd-payload) record, the next must still be aligned
  // for pointer-bearing payloads.
  EXPECT_EQ(static_cast<std::size_t>(cursor.record()->sz) % alignof(void*),
            0u);
}

/// A runtime stand-in that answers region-id queries with id 42.
int answer_id_queries(void* buffer) {
  MessageCursor cursor(buffer);
  for (; !cursor.at_terminator(); cursor.advance()) {
    if (!cursor.valid()) return -1;
    const unsigned long id = 42;
    cursor.write_reply(&id, sizeof(id));
  }
  return 0;
}

TEST(MessageBuilder, IdQueryAllocatesNothing) {
  // The tool sends one region-id query per join: composing the message,
  // the round trip, and reading the reply must stay off the heap.
  const Client client(&answer_id_queries);
  ASSERT_EQ(client.current_prid().value_or(0), 42ul);  // warm
  const std::uint64_t before = g_allocations.load();
  const Expected<unsigned long> id = client.current_prid();
  const std::uint64_t after = g_allocations.load();
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(*id, 42ul);
  EXPECT_EQ(after - before, 0u);
}

TEST(MessageBuilder, LargeMessagesSpillAndStayIntact) {
  // Past the inline capacity the builder moves to the heap; every record
  // written before and after the spill must survive it.
  MessageBuilder builder;
  constexpr int kRecords = 40;
  for (int i = 0; i < kRecords; ++i) builder.add_unregister(i);
  ASSERT_EQ(builder.count(), static_cast<std::size_t>(kRecords));
  MessageCursor cursor(builder.buffer());
  for (int i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(cursor.valid()) << i;
    int event = -1;
    ASSERT_TRUE(cursor.read_payload(&event, sizeof(event)));
    EXPECT_EQ(event, i);
    cursor.advance();
  }
  EXPECT_TRUE(cursor.at_terminator());
}

}  // namespace
