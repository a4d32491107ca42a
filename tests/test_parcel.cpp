// Unit tests: parcel wire format (records, batch frames, zero-copy views)
// and the action registry.
#include <gtest/gtest.h>

#include <cstring>

#include "parcel/action_registry.hpp"
#include "parcel/migration.hpp"
#include "parcel/parcel.hpp"

namespace {

using namespace px;
using namespace px::parcel;

parcel::parcel sample_parcel(int salt = 0) {
  parcel::parcel p;
  p.destination = gas::gid::make(gas::gid_kind::data, 3, 42 + salt);
  p.action = 7 + static_cast<action_id>(salt);
  p.cont.target = gas::gid::make(gas::gid_kind::lco, 1, 9);
  p.cont.action = 2;
  p.arguments = util::to_bytes(std::string("payload"), 123 + salt);
  p.source = 5;
  p.forwards = 2;
  return p;
}

void expect_equal(const parcel::parcel& a, const parcel::parcel& b) {
  EXPECT_EQ(a.destination, b.destination);
  EXPECT_EQ(a.action, b.action);
  EXPECT_EQ(a.cont.target, b.cont.target);
  EXPECT_EQ(a.cont.action, b.cont.action);
  EXPECT_EQ(a.arguments, b.arguments);
  EXPECT_EQ(a.source, b.source);
  EXPECT_EQ(a.forwards, b.forwards);
}

// ------------------------------------------------------------ record wire

TEST(Parcel, RecordRoundTripIdentity) {
  const parcel::parcel p = sample_parcel();
  std::vector<std::byte> buf;
  encode_into(buf, p);
  EXPECT_EQ(buf.size(), encoded_size(p));

  const auto v = parcel_view::parse(buf);
  ASSERT_TRUE(v.has_value());
  expect_equal(v->to_parcel(), p);
}

TEST(Parcel, ViewReadsArgumentsInPlace) {
  const parcel::parcel p = sample_parcel();
  std::vector<std::byte> buf;
  encode_into(buf, p);
  const auto v = parcel_view::parse(buf);
  ASSERT_TRUE(v.has_value());
  // Zero-copy: the argument span must alias the encode buffer.
  EXPECT_GE(v->arguments().data(), buf.data());
  EXPECT_LE(v->arguments().data() + v->arguments().size(),
            buf.data() + buf.size());
  EXPECT_EQ(v->arguments().size(), p.arguments.size());
  EXPECT_EQ(std::memcmp(v->arguments().data(), p.arguments.data(),
                        p.arguments.size()),
            0);
}

TEST(Parcel, ViewOfBorrowsWithoutCopy) {
  const parcel::parcel p = sample_parcel();
  const parcel_view v = parcel_view::of(p);
  EXPECT_EQ(v.destination(), p.destination);
  EXPECT_EQ(v.arguments().data(), p.arguments.data());  // same storage
}

TEST(Parcel, TruncatedRecordRejected) {
  std::vector<std::byte> buf;
  encode_into(buf, sample_parcel());
  // Every strict prefix must be rejected: either the header is short or
  // the argument length no longer matches the record size.
  for (std::size_t n = 0; n < buf.size(); ++n) {
    EXPECT_FALSE(parcel_view::parse(std::span(buf.data(), n)).has_value())
        << "prefix of " << n << " bytes parsed";
  }
}

TEST(Parcel, RecordWithOversizedTailRejected) {
  std::vector<std::byte> buf;
  encode_into(buf, sample_parcel());
  buf.push_back(std::byte{0});  // arg_len no longer matches
  EXPECT_FALSE(parcel_view::parse(buf).has_value());
}

TEST(Parcel, EncodeIntoAppends) {
  std::vector<std::byte> buf;
  const parcel::parcel a = sample_parcel(1);
  const parcel::parcel b = sample_parcel(2);
  encode_into(buf, a);
  const std::size_t split = buf.size();
  encode_into(buf, b);
  const auto va = parcel_view::parse(std::span(buf.data(), split));
  const auto vb =
      parcel_view::parse(std::span(buf.data() + split, buf.size() - split));
  ASSERT_TRUE(va.has_value());
  ASSERT_TRUE(vb.has_value());
  expect_equal(va->to_parcel(), a);
  expect_equal(vb->to_parcel(), b);
}

// ------------------------------------------------------------ batch frame

TEST(ParcelFrame, EmptyFrameRoundTrip) {
  std::vector<std::byte> buf;
  frame_begin(buf);
  EXPECT_EQ(buf.size(), frame_header_bytes);
  EXPECT_EQ(frame_count(buf), 0u);
  const auto frame = frame_view::parse(buf);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->count(), 0u);
  EXPECT_FALSE(frame->begin() != frame->end());  // begin == end
}

TEST(ParcelFrame, SingleParcelFrame) {
  const parcel::parcel p = sample_parcel();
  std::vector<std::byte> buf;
  frame_begin(buf);
  frame_append(buf, p);
  EXPECT_EQ(frame_count(buf), 1u);

  const auto frame = frame_view::parse(buf);
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->count(), 1u);
  expect_equal((*frame->begin()).to_parcel(), p);
}

TEST(ParcelFrame, BatchRoundTripPreservesOrderAndContents) {
  std::vector<parcel::parcel> parcels;
  std::vector<std::byte> buf;
  frame_begin(buf);
  for (int i = 0; i < 17; ++i) {
    parcels.push_back(sample_parcel(i));
    if (i % 5 == 0) parcels.back().arguments.clear();  // empty-args parcels
    frame_append(buf, parcels.back());
  }
  EXPECT_EQ(frame_count(buf), 17u);

  const auto frame = frame_view::parse(buf);
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->count(), 17u);
  std::size_t i = 0;
  for (auto it = frame->begin(); it != frame->end(); ++it, ++i) {
    expect_equal((*it).to_parcel(), parcels[i]);
  }
  EXPECT_EQ(i, parcels.size());
}

TEST(ParcelFrame, TruncatedFramesRejected) {
  std::vector<std::byte> buf;
  frame_begin(buf);
  for (int i = 0; i < 3; ++i) frame_append(buf, sample_parcel(i));
  ASSERT_TRUE(frame_view::parse(buf).has_value());
  for (std::size_t n = 0; n < buf.size(); ++n) {
    EXPECT_FALSE(frame_view::parse(std::span(buf.data(), n)).has_value())
        << "prefix of " << n << " bytes parsed";
  }
}

TEST(ParcelFrame, GarbageRejected) {
  // Wrong magic.
  std::vector<std::byte> buf;
  frame_begin(buf);
  frame_append(buf, sample_parcel());
  buf[0] = std::byte{0x00};
  EXPECT_FALSE(frame_view::parse(buf).has_value());

  // Random bytes.
  std::vector<std::byte> junk(64);
  for (std::size_t i = 0; i < junk.size(); ++i) {
    junk[i] = static_cast<std::byte>(i * 37 + 11);
  }
  EXPECT_FALSE(frame_view::parse(junk).has_value());

  // Empty input.
  EXPECT_FALSE(frame_view::parse({}).has_value());
}

TEST(ParcelFrame, CorruptCountAndLengthRejected) {
  std::vector<std::byte> buf;
  frame_begin(buf);
  frame_append(buf, sample_parcel());

  // Count claims more records than the frame carries.
  auto inflated = buf;
  const std::uint32_t big = 1000;
  std::memcpy(inflated.data() + 4, &big, sizeof big);
  EXPECT_FALSE(frame_view::parse(inflated).has_value());

  // Count claims fewer: the tail becomes trailing garbage.
  auto deflated = buf;
  const std::uint32_t zero = 0;
  std::memcpy(deflated.data() + 4, &zero, sizeof zero);
  EXPECT_FALSE(frame_view::parse(deflated).has_value());

  // Record length larger than the remaining bytes.
  auto overlong = buf;
  const std::uint32_t huge = 0x7fffffff;
  std::memcpy(overlong.data() + frame_header_bytes, &huge, sizeof huge);
  EXPECT_FALSE(frame_view::parse(overlong).has_value());

  // Record length that truncates the parcel header.
  auto shortrec = buf;
  const std::uint32_t tiny = 4;
  std::memcpy(shortrec.data() + frame_header_bytes, &tiny, sizeof tiny);
  EXPECT_FALSE(frame_view::parse(shortrec).has_value());
}

// ------------------------------------------------------- wire byte order

// The wire format is defined little-endian (distributed peers must agree
// on what the bytes mean).  Pin the exact on-wire layout of every header
// field: if this golden test breaks, the wire format changed and every
// peer must change with it.
TEST(ParcelWire, HeaderEncodesLittleEndian) {
  parcel::parcel p;
  p.destination = gas::gid::from_bits(0x1122334455667788ull);
  p.cont.target = gas::gid::from_bits(0x99aabbccddeeff00ull);
  p.action = 0x01020304u;
  p.cont.action = 0x05060708u;
  p.source = 0x0a0b0c0du;
  p.forwards = 0x7f;
  p.arguments = {std::byte{0xde}, std::byte{0xad}};

  std::vector<std::byte> buf;
  encode_into(buf, p);
  ASSERT_EQ(buf.size(), wire_header_bytes + 2);
  const auto at = [&](std::size_t i) {
    return std::to_integer<unsigned>(buf[i]);
  };
  // destination, least significant byte first
  EXPECT_EQ(at(0), 0x88u);
  EXPECT_EQ(at(7), 0x11u);
  // continuation target
  EXPECT_EQ(at(8), 0x00u);
  EXPECT_EQ(at(15), 0x99u);
  // action / cont.action / source
  EXPECT_EQ(at(16), 0x04u);
  EXPECT_EQ(at(19), 0x01u);
  EXPECT_EQ(at(20), 0x08u);
  EXPECT_EQ(at(23), 0x05u);
  EXPECT_EQ(at(24), 0x0du);
  EXPECT_EQ(at(27), 0x0au);
  // forwards + reserved zero padding
  EXPECT_EQ(at(28), 0x7fu);
  EXPECT_EQ(at(29), 0x00u);
  EXPECT_EQ(at(30), 0x00u);
  EXPECT_EQ(at(31), 0x00u);
  // arg length then raw argument bytes
  EXPECT_EQ(at(32), 0x02u);
  EXPECT_EQ(at(35), 0x00u);
  EXPECT_EQ(at(36), 0xdeu);
  EXPECT_EQ(at(37), 0xadu);
}

TEST(ParcelWire, FrameHeaderEncodesLittleEndian) {
  std::vector<std::byte> buf;
  frame_begin(buf);
  frame_append(buf, sample_parcel());
  // magic "PXBF" reads as the bytes P X B F in stream order...
  EXPECT_EQ(std::to_integer<char>(buf[0]), 'P');
  EXPECT_EQ(std::to_integer<char>(buf[1]), 'X');
  EXPECT_EQ(std::to_integer<char>(buf[2]), 'B');
  EXPECT_EQ(std::to_integer<char>(buf[3]), 'F');
  // ...and count is a little-endian u32.
  EXPECT_EQ(std::to_integer<unsigned>(buf[4]), 1u);
  EXPECT_EQ(std::to_integer<unsigned>(buf[7]), 0u);
}

TEST(ParcelWire, GoldenBytesDecodeOnThisHost) {
  // A frame captured from the (little-endian-defined) wire: one record,
  // action 0x0102, no continuation, source 3, one argument byte 0x2a,
  // destination gid 0x4000000000000007 (data kind, home 0, seq 7).
  const unsigned char wire[] = {
      'P', 'X', 'B', 'F', 1, 0, 0, 0,  // frame header
      37, 0, 0, 0,                     // record length
      0x07, 0, 0, 0, 0, 0, 0, 0x40,    // destination
      0, 0, 0, 0, 0, 0, 0, 0,          // cont target (invalid)
      0x02, 0x01, 0, 0,                // action
      0, 0, 0, 0,                      // cont action
      3, 0, 0, 0,                      // source
      0, 0, 0, 0,                      // forwards + reserved
      1, 0, 0, 0,                      // arg length
      0x2a,                            // argument
  };
  std::vector<std::byte> buf(sizeof wire);
  std::memcpy(buf.data(), wire, sizeof wire);
  const auto frame = frame_view::parse(buf);
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->count(), 1u);
  const parcel_view v = *frame->begin();
  EXPECT_EQ(v.destination().bits(), 0x4000000000000007ull);
  EXPECT_EQ(v.action(), 0x0102u);
  EXPECT_FALSE(v.cont().valid());
  EXPECT_EQ(v.source(), 3u);
  ASSERT_EQ(v.arguments().size(), 1u);
  EXPECT_EQ(std::to_integer<unsigned>(v.arguments()[0]), 0x2au);
}

// ------------------------------------------------------ stream reassembly

TEST(FrameAssembler, WholeFrameInOneFeed) {
  std::vector<std::byte> buf;
  frame_begin(buf);
  frame_append(buf, sample_parcel(1));
  frame_assembler as;
  ASSERT_TRUE(as.feed(buf));
  const auto frame = as.next_frame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(*frame, buf);
  EXPECT_FALSE(as.next_frame().has_value());
  EXPECT_EQ(as.buffered_bytes(), 0u);
}

// The satellite case: a multi-parcel frame split at *every* byte boundary
// must reassemble identically — no header/record/argument boundary is
// special to the stream.
TEST(FrameAssembler, PartialReadsSplitAtEveryByteBoundary) {
  std::vector<std::byte> buf;
  frame_begin(buf);
  for (int i = 0; i < 3; ++i) frame_append(buf, sample_parcel(i));
  for (std::size_t split = 1; split < buf.size(); ++split) {
    frame_assembler as;
    ASSERT_TRUE(as.feed(std::span(buf.data(), split)));
    EXPECT_FALSE(as.next_frame().has_value())
        << "frame yielded before its last byte (split " << split << ")";
    ASSERT_TRUE(as.feed(std::span(buf.data() + split, buf.size() - split)));
    const auto frame = as.next_frame();
    ASSERT_TRUE(frame.has_value()) << "split at byte " << split;
    EXPECT_EQ(*frame, buf);
    EXPECT_EQ(as.buffered_bytes(), 0u);
  }
}

TEST(FrameAssembler, DribbleOneByteAtATime) {
  std::vector<std::byte> buf;
  frame_begin(buf);
  for (int i = 0; i < 2; ++i) frame_append(buf, sample_parcel(10 + i));
  frame_assembler as;
  for (std::size_t i = 0; i + 1 < buf.size(); ++i) {
    ASSERT_TRUE(as.feed(std::span(buf.data() + i, 1)));
    EXPECT_FALSE(as.next_frame().has_value());
  }
  ASSERT_TRUE(as.feed(std::span(buf.data() + buf.size() - 1, 1)));
  const auto frame = as.next_frame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(*frame, buf);
}

TEST(FrameAssembler, BackToBackFramesInOneFeed) {
  std::vector<std::byte> f1, f2, stream;
  frame_begin(f1);
  frame_append(f1, sample_parcel(1));
  frame_begin(f2);
  frame_append(f2, sample_parcel(2));
  frame_append(f2, sample_parcel(3));
  stream = f1;
  stream.insert(stream.end(), f2.begin(), f2.end());
  // Plus a partial third frame left dangling.
  stream.insert(stream.end(), f1.begin(), f1.begin() + 5);

  frame_assembler as;
  ASSERT_TRUE(as.feed(stream));
  auto a = as.next_frame();
  auto b = as.next_frame();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*a, f1);
  EXPECT_EQ(*b, f2);
  EXPECT_FALSE(as.next_frame().has_value());
  EXPECT_EQ(as.buffered_bytes(), 5u);
}

// Garbage prefix: rejected outright, never resynchronized — scanning for
// the next magic would silently drop parcels.
TEST(FrameAssembler, GarbagePrefixPoisonsInsteadOfResyncing) {
  std::vector<std::byte> valid;
  frame_begin(valid);
  frame_append(valid, sample_parcel());
  std::vector<std::byte> stream = {std::byte{0x00}, std::byte{0x01},
                                   std::byte{0x02}, std::byte{0x03},
                                   std::byte{0xff}, std::byte{0xff},
                                   std::byte{0xff}, std::byte{0xff}};
  stream.insert(stream.end(), valid.begin(), valid.end());

  frame_assembler as;
  EXPECT_FALSE(as.feed(stream));
  EXPECT_TRUE(as.poisoned());
  EXPECT_FALSE(as.next_frame().has_value());
  // Still poisoned: later clean bytes must not revive the stream.
  EXPECT_FALSE(as.feed(valid));
  EXPECT_FALSE(as.next_frame().has_value());
}

TEST(FrameAssembler, OversizedFrameClaimPoisons) {
  std::vector<std::byte> buf;
  frame_begin(buf);
  frame_append(buf, sample_parcel());
  // Corrupt the record length to something enormous.
  const std::uint32_t huge = 0x7fffffffu;
  std::memcpy(buf.data() + frame_header_bytes, &huge, sizeof huge);
  frame_assembler as(1 << 16);
  EXPECT_FALSE(as.feed(buf));
  EXPECT_TRUE(as.poisoned());
}

TEST(FrameAssembler, CorruptRecordInsideCompleteFramePoisons) {
  std::vector<std::byte> buf;
  frame_begin(buf);
  frame_append(buf, sample_parcel());
  // Flip the parcel's arg-length field so the record is internally
  // inconsistent while the frame stays structurally delimitable.
  buf[frame_header_bytes + 4 + 32] ^= std::byte{0x01};
  frame_assembler as;
  as.feed(buf);
  EXPECT_FALSE(as.next_frame().has_value());
  EXPECT_TRUE(as.poisoned());
}

TEST(Parcel, ContinuationValidity) {
  continuation c;
  EXPECT_FALSE(c.valid());
  c.target = gas::gid::make(gas::gid_kind::lco, 0, 1);
  EXPECT_TRUE(c.valid());
}

// -------------------------------------------------------- action registry

int g_hello_hits = 0;
void* g_hello_ctx = nullptr;
void hello_handler(void* ctx, const parcel_view&) {
  ++g_hello_hits;
  g_hello_ctx = ctx;
}

TEST(ActionRegistry, RegisterDispatchByIdAndName) {
  action_registry reg;
  g_hello_hits = 0;
  g_hello_ctx = nullptr;
  const action_id id = reg.register_action("test.hello", &hello_handler);
  EXPECT_EQ(reg.find("test.hello").value(), id);
  EXPECT_EQ(reg.name_of(id), "test.hello");
  EXPECT_FALSE(reg.find("test.absent").has_value());

  parcel::parcel p;
  p.action = id;
  int ctx_obj = 0;
  reg.dispatch(&ctx_obj, p);
  EXPECT_EQ(g_hello_hits, 1);
  EXPECT_EQ(g_hello_ctx, &ctx_obj);
}

int g_fast_hits = 0;
void fast_handler(void*, const parcel_view& pv) {
  g_fast_hits += static_cast<int>(pv.arguments().size());
}

TEST(ActionRegistry, FunctionPointerFastPathDispatchesViews) {
  action_registry reg;
  const action_id id = reg.register_action("test.fast", &fast_handler);

  // Dispatch from an owned parcel: the view borrows its arguments.
  g_fast_hits = 0;
  parcel::parcel p;
  p.action = id;
  p.arguments = std::vector<std::byte>(5);
  reg.dispatch(nullptr, p);
  EXPECT_EQ(g_fast_hits, 5);

  // Dispatch from a wire view: zero-copy end to end.
  parcel::parcel q;
  q.action = id;
  q.arguments = std::vector<std::byte>(9);
  std::vector<std::byte> buf;
  encode_into(buf, q);
  const auto v = parcel_view::parse(buf);
  ASSERT_TRUE(v.has_value());
  g_fast_hits = 0;
  reg.dispatch(nullptr, *v);
  EXPECT_EQ(g_fast_hits, 9);
}

TEST(ActionRegistry, IdsAreSequentialFromOne) {
  action_registry reg;
  const auto a = reg.register_action("a", &fast_handler);
  const auto b = reg.register_action("b", &fast_handler);
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(ActionRegistry, GlobalIsSingleton) {
  EXPECT_EQ(&action_registry::global(), &action_registry::global());
}

// Migration payload records (PR 5): the registry reconstructs a
// registered type from record bytes, and the record itself round-trips
// through the serialization archive like any action argument.
struct mig_probe {
  std::uint64_t a = 0;
  std::string tag;
  template <typename Ar>
  friend void serialize(Ar& ar, mig_probe& m) {
    ar& m.a& m.tag;
  }
};
PX_REGISTER_MIGRATABLE(mig_probe)

TEST(Migration, RegistryEncodesAndReconstructsRegisteredTypes) {
  auto& reg = migratable_registry::global();
  const auto* vt = reg.find("mig_probe");
  ASSERT_NE(vt, nullptr);
  auto obj = std::make_shared<mig_probe>();
  obj->a = 42;
  obj->tag = "hot";
  const auto bytes = vt->encode(std::static_pointer_cast<void>(obj));
  const auto back = vt->decode(bytes);
  ASSERT_NE(back, nullptr);
  const auto* m = static_cast<const mig_probe*>(back.get());
  EXPECT_EQ(m->a, 42u);
  EXPECT_EQ(m->tag, "hot");
  EXPECT_EQ(reg.find("no_such_type"), nullptr);
}

TEST(Migration, RecordRoundTripsThroughArchive) {
  migration_record rec;
  rec.gid_bits = 0x1234abcdull;
  rec.type_name = "mig_probe";
  rec.payload = px::util::to_bytes(std::uint64_t{7});
  const auto bytes = px::util::to_bytes(rec);
  const auto back = px::util::from_bytes<migration_record>(bytes);
  EXPECT_EQ(back.gid_bits, rec.gid_bits);
  EXPECT_EQ(back.type_name, rec.type_name);
  EXPECT_EQ(back.payload, rec.payload);
}

}  // namespace
