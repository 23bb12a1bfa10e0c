/// \file test_rpc_codec.cpp
/// \brief Wire-codec property tests: random messages round-trip
///        identically; truncated and corrupted frames raise RpcError and
///        never invoke UB.

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <tuple>
#include <string_view>
#include <vector>

#include "chunk/ram_store.hpp"
#include "common/random.hpp"
#include "dht/metadata_provider.hpp"
#include "provider/data_provider.hpp"
#include "rpc/dispatcher.hpp"
#include "rpc/messages.hpp"
#include "rpc/protocol.hpp"
#include "rpc/wire.hpp"

namespace blobseer::rpc {
namespace {

// ---- primitives -------------------------------------------------------------

TEST(Wire, FixedWidthRoundTrip) {
    WireWriter w;
    w.u8(0xab);
    w.u16(0xbeef);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefULL);
    const Buffer buf = w.take();
    WireReader r{ConstBytes(buf)};
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u16(), 0xbeef);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
    r.expect_end();
}

TEST(Wire, VarintRoundTripBoundaries) {
    const std::uint64_t cases[] = {0,
                                   1,
                                   127,
                                   128,
                                   16383,
                                   16384,
                                   (1ULL << 32) - 1,
                                   1ULL << 32,
                                   ~0ULL};
    for (const std::uint64_t v : cases) {
        WireWriter w;
        w.varint(v);
        const Buffer buf = w.take();
        WireReader r{ConstBytes(buf)};
        EXPECT_EQ(r.varint(), v) << v;
        r.expect_end();
    }
}

TEST(Wire, VarintRandomRoundTrip) {
    Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
        // Bias towards small values but cover the whole range.
        const std::uint64_t v = rng() >> (rng() % 64);
        WireWriter w;
        w.varint(v);
        const Buffer buf = w.take();
        WireReader r{ConstBytes(buf)};
        EXPECT_EQ(r.varint(), v);
    }
}

TEST(Wire, TruncatedReadsThrow) {
    WireWriter w;
    w.u64(42);
    Buffer buf = w.take();
    buf.resize(5);
    WireReader r{ConstBytes(buf)};
    EXPECT_THROW((void)r.u64(), RpcError);
}

TEST(Wire, OversizedBlobLengthThrows) {
    WireWriter w;
    w.varint(1ULL << 40);  // claims a terabyte of payload
    const Buffer buf = w.take();
    WireReader r{ConstBytes(buf)};
    EXPECT_THROW((void)r.blob(), RpcError);
}

TEST(Wire, OverlongVarintThrows) {
    const Buffer buf(11, 0xff);  // 11 continuation bytes
    WireReader r{ConstBytes(buf)};
    EXPECT_THROW((void)r.varint(), RpcError);
}

TEST(Wire, TrailingBytesDetected) {
    WireWriter w;
    w.u32(1);
    w.u8(9);
    const Buffer buf = w.take();
    WireReader r{ConstBytes(buf)};
    (void)r.u32();
    EXPECT_THROW(r.expect_end(), RpcError);
}

// ---- random message generators ----------------------------------------------

meta::MetaNode random_node(Rng& rng) {
    if (rng() % 2 == 0) {
        std::vector<NodeId> replicas;
        const std::size_t n = rng() % 5;
        for (std::size_t i = 0; i < n; ++i) {
            replicas.push_back(static_cast<NodeId>(rng()));
        }
        return meta::MetaNode::leaf(std::move(replicas), rng(),
                                    static_cast<std::uint32_t>(rng()));
    }
    meta::ChildRef l{rng(), rng()};
    meta::ChildRef r{rng(), rng()};
    return meta::MetaNode::inner(l, r);
}

meta::WriteDescriptor random_descriptor(Rng& rng) {
    meta::WriteDescriptor d;
    d.version = rng();
    d.offset = rng();
    d.size = rng();
    d.size_before = rng();
    d.size_after = rng();
    return d;
}

version::AssignResult random_assign(Rng& rng) {
    version::AssignResult a;
    a.version = rng();
    a.offset = rng();
    a.size_before = rng();
    a.size_after = rng();
    a.base = meta::TreeRef{rng(), rng(), rng()};
    const std::size_t nb = rng() % 24;
    for (std::size_t i = 0; i < nb; ++i) {
        a.borders.push_back({{rng(), rng()}, {rng(), rng()}});
    }
    a.chunk_size = rng();
    a.replication = static_cast<std::uint32_t>(rng());
    return a;
}

bool equal(const meta::MetaNode& a, const meta::MetaNode& b) {
    return a.kind == b.kind && a.left == b.left && a.right == b.right &&
           a.replicas == b.replicas && a.chunk_uid == b.chunk_uid &&
           a.chunk_bytes == b.chunk_bytes;
}

// ---- composite round trips ---------------------------------------------------

TEST(Codec, MetaNodeRandomRoundTrip) {
    Rng rng(11);
    for (int i = 0; i < 500; ++i) {
        const meta::MetaNode n = random_node(rng);
        WireWriter w;
        put_meta_node(w, n);
        const Buffer buf = w.take();
        WireReader r{ConstBytes(buf)};
        const meta::MetaNode back = get_meta_node(r);
        r.expect_end();
        EXPECT_TRUE(equal(n, back));
    }
}

TEST(Codec, MetaBatchRandomRoundTrip) {
    Rng rng(13);
    for (int i = 0; i < 100; ++i) {
        std::vector<meta::KeyedNode> batch(1 + rng() % 20);
        for (auto& n : batch) {
            n.key = meta::MetaKey{rng(), rng(), {rng(), rng()}};
            n.node = random_node(rng);
        }
        WireWriter w;
        put_meta_batch(w, batch);
        const Buffer buf = w.take();
        WireReader r{ConstBytes(buf)};
        const auto back = get_meta_batch(r);
        r.expect_end();
        ASSERT_EQ(back.size(), batch.size());
        for (std::size_t k = 0; k < batch.size(); ++k) {
            EXPECT_EQ(back[k].key, batch[k].key);
            EXPECT_TRUE(equal(back[k].node, batch[k].node));
        }
    }
}

TEST(Codec, ChunkReadBatchRandomRoundTrip) {
    Rng rng(17);
    for (int i = 0; i < 100; ++i) {
        std::vector<ChunkRead> reads(1 + rng() % 20);
        std::vector<ChunkReadEntry> entries(reads.size());
        for (std::size_t k = 0; k < reads.size(); ++k) {
            reads[k].key = chunk::ChunkKey{rng(), rng()};
            reads[k].key.kind = static_cast<chunk::ChunkKey::Kind>(rng() % 2);
            reads[k].offset = rng() >> (rng() % 64);
            reads[k].size = rng() >> (rng() % 64);
            entries[k].status = static_cast<ChunkReadStatus>(rng() % 3);
            if (entries[k].status == ChunkReadStatus::kServed) {
                entries[k].chunk_size = rng();
                entries[k].length = rng() >> (rng() % 64);
            }
        }
        WireWriter w;
        put_chunk_reads(w, reads);
        for (const ChunkReadEntry& e : entries) {
            put_chunk_read_entry(w, e);
        }
        const Buffer buf = w.take();
        WireReader r{ConstBytes(buf)};
        EXPECT_EQ(get_chunk_reads(r), reads);
        for (const ChunkReadEntry& e : entries) {
            EXPECT_EQ(get_chunk_read_entry(r), e);
        }
        r.expect_end();
    }
    // An unknown status, and bytes claimed for an unserved key, are
    // rejected.
    for (const auto& [status, length] :
         {std::pair{3, 0}, std::pair{1, 5}, std::pair{2, 1}}) {
        WireWriter w;
        w.u8(static_cast<std::uint8_t>(status));
        w.u64(0);
        w.varint(static_cast<std::uint64_t>(length));
        const Buffer buf = w.take();
        WireReader r{ConstBytes(buf)};
        EXPECT_THROW((void)get_chunk_read_entry(r), RpcError) << status;
    }
}

TEST(Codec, AssignResultRandomRoundTrip) {
    Rng rng(13);
    for (int i = 0; i < 300; ++i) {
        const version::AssignResult a = random_assign(rng);
        WireWriter w;
        put_assign_result(w, a);
        const Buffer buf = w.take();
        WireReader r{ConstBytes(buf)};
        const version::AssignResult back = get_assign_result(r);
        r.expect_end();
        EXPECT_EQ(back.version, a.version);
        EXPECT_EQ(back.offset, a.offset);
        EXPECT_EQ(back.size_before, a.size_before);
        EXPECT_EQ(back.size_after, a.size_after);
        EXPECT_EQ(back.base.blob, a.base.blob);
        EXPECT_EQ(back.base.version, a.base.version);
        EXPECT_EQ(back.base.size, a.base.size);
        EXPECT_EQ(back.chunk_size, a.chunk_size);
        EXPECT_EQ(back.replication, a.replication);
        EXPECT_EQ(back.borders, a.borders);
    }
}

TEST(Codec, AssignResultCarriesBorderRefs) {
    // v14: the border refs follow the base tree ref, one (first, count,
    // blob, version) record each, holes included; no concurrent
    // descriptors precede them.
    version::AssignResult a;
    a.version = 9;
    a.borders = {{{0, 4}, {77, 5}}, {{6, 1}, {77, 8}}, {{7, 1}, {}}};
    WireWriter w;
    put_assign_result(w, a);
    const Buffer buf = w.take();
    EXPECT_EQ(buf.size(), 4 * 8 + 24 + 1 + 3 * 32 + 8 + 4);
    WireReader r{ConstBytes(buf)};
    const version::AssignResult back = get_assign_result(r);
    r.expect_end();
    ASSERT_EQ(back.borders.size(), 3u);
    EXPECT_EQ(back.borders, a.borders);
    EXPECT_TRUE(back.borders[2].ref.is_hole());
    // A count larger than the bytes left is rejected before any reserve.
    Buffer lying = buf;
    lying[4 * 8 + 24] = 0x7f;
    WireReader bad{ConstBytes(lying)};
    EXPECT_THROW((void)get_assign_result(bad), RpcError);
}

TEST(Codec, RetireInfoRoundTrip) {
    Rng rng(17);
    version::VersionManager::RetireInfo info;
    for (int i = 0; i < 7; ++i) {
        info.retired.push_back(rng());
        info.descriptors.push_back(random_descriptor(rng));
        info.pinned.push_back(rng());
    }
    info.keep_from = rng();
    WireWriter w;
    put_retire_info(w, info);
    const Buffer buf = w.take();
    WireReader r{ConstBytes(buf)};
    const auto back = get_retire_info(r);
    r.expect_end();
    EXPECT_EQ(back.retired, info.retired);
    EXPECT_EQ(back.pinned, info.pinned);
    EXPECT_EQ(back.keep_from, info.keep_from);
    ASSERT_EQ(back.descriptors.size(), info.descriptors.size());
}

TEST(Codec, PlacementPlanRoundTrip) {
    Rng rng(19);
    provider::PlacementPlan plan;
    for (int i = 0; i < 9; ++i) {
        std::vector<NodeId> targets;
        const std::size_t n = rng() % 4;
        for (std::size_t k = 0; k < n; ++k) {
            targets.push_back(static_cast<NodeId>(rng()));
        }
        plan.push_back(std::move(targets));
    }
    WireWriter w;
    put_placement_plan(w, plan);
    const Buffer buf = w.take();
    WireReader r{ConstBytes(buf)};
    EXPECT_EQ(get_placement_plan(r), plan);
    r.expect_end();
}

TEST(Codec, TopologyRoundTrip) {
    Topology t;
    t.vm_nodes = {0, 9};
    t.pm_node = 1;
    t.data_nodes = {2, 3, 4};
    t.meta_nodes = {5, 6};
    t.meta_replication = 2;
    t.default_replication = 3;
    t.publish_timeout_ms = 12345;
    t.client_id = 1u << 20;
    // v6: external provider daemons carried as dial endpoints.
    t.provider_endpoints = {{1u << 21, "10.0.0.7", 40001},
                            {(1u << 21) + 1, "dp-b.example", 40002}};
    WireWriter w;
    put_topology(w, t);
    const Buffer buf = w.take();
    WireReader r{ConstBytes(buf)};
    EXPECT_EQ(get_topology(r), t);
    r.expect_end();
}

// ---- membership & repair (protocol v6) --------------------------------------

chunk::ChunkKey random_key(Rng& rng) {
    chunk::ChunkKey k;
    k.blob = rng();
    k.uid = rng();
    k.kind = (rng() % 2 == 0) ? chunk::ChunkKey::Kind::kUid
                              : chunk::ChunkKey::Kind::kContent;
    return k;
}

TEST(Codec, ChunkHoldingsRandomRoundTrip) {
    Rng rng(29);
    for (int i = 0; i < 200; ++i) {
        std::vector<provider::ChunkHolding> v;
        const std::size_t n = rng() % 8;
        for (std::size_t k = 0; k < n; ++k) {
            v.push_back({random_key(rng), rng()});
        }
        WireWriter w;
        put_chunk_holdings(w, v);
        const Buffer buf = w.take();
        WireReader r{ConstBytes(buf)};
        EXPECT_EQ(get_chunk_holdings(r), v);
        r.expect_end();
    }
}

TEST(Codec, ChunkKeysRandomRoundTrip) {
    Rng rng(31);
    for (int i = 0; i < 200; ++i) {
        std::vector<chunk::ChunkKey> v;
        const std::size_t n = rng() % 8;
        for (std::size_t k = 0; k < n; ++k) {
            v.push_back(random_key(rng));
        }
        WireWriter w;
        put_chunk_keys(w, v);
        const Buffer buf = w.take();
        WireReader r{ConstBytes(buf)};
        EXPECT_EQ(get_chunk_keys(r), v);
        r.expect_end();
    }
}

TEST(Codec, VersionStatusRejectsUnknownValue) {
    Buffer buf{0x17};
    WireReader r{ConstBytes(buf)};
    EXPECT_THROW((void)get_version_status(r), RpcError);
}

// ---- frames ------------------------------------------------------------------

TEST(Frame, RequestRoundTrip) {
    WireWriter body;
    body.u64(77);
    const Buffer frame = seal_request(MsgType::kGetVersion, 9,
                                      std::move(body));
    const FrameView f = parse_frame(frame);
    EXPECT_FALSE(f.response);
    EXPECT_EQ(f.type, MsgType::kGetVersion);
    EXPECT_EQ(f.dst(), 9u);
    WireReader r(f.payload);
    EXPECT_EQ(r.u64(), 77u);
    r.expect_end();
}

TEST(Frame, ErrorResponseCarriesStatusAndMessage) {
    const Buffer frame =
        seal_error(MsgType::kChunkGetBatch, Status::kNotFound, "gone");
    const FrameView f = parse_frame(frame);
    EXPECT_TRUE(f.response);
    EXPECT_EQ(f.status(), Status::kNotFound);
    WireReader r(f.payload);
    EXPECT_THROW(throw_status(f.status(), r.str()), NotFoundError);
}

TEST(Frame, EveryTruncationThrows) {
    WireWriter body;
    body.u64(1);
    body.str("hello");
    const Buffer frame = seal_request(MsgType::kAssign, 3, std::move(body));
    for (std::size_t n = 0; n < frame.size(); ++n) {
        EXPECT_THROW((void)parse_frame(ConstBytes(frame.data(), n)),
                     RpcError)
            << "prefix length " << n;
    }
}

TEST(Frame, RandomCorruptionNeverUB) {
    // Flip bytes all over valid frames; parse + payload decode must
    // either succeed or throw RpcError — anything else (crash, UB,
    // foreign exception) fails the test.
    Rng rng(23);
    WireWriter body;
    body.u64(4);
    body.u64(2);
    const Buffer pristine =
        seal_request(MsgType::kGetVersion, 1, std::move(body));
    for (int i = 0; i < 4000; ++i) {
        Buffer frame = pristine;
        const std::size_t flips = 1 + rng() % 4;
        for (std::size_t k = 0; k < flips; ++k) {
            frame[rng() % frame.size()] ^=
                static_cast<std::uint8_t>(1 + rng() % 255);
        }
        try {
            const FrameView f = parse_frame(frame);
            WireReader r(f.payload);
            (void)r.u64();
            (void)r.u64();
            r.expect_end();
        } catch (const RpcError&) {
            // expected failure mode
        }
    }
}

TEST(Frame, PayloadLengthMismatchThrows) {
    WireWriter body;
    body.u64(1);
    Buffer frame = seal_request(MsgType::kCommit, 0, std::move(body));
    frame.push_back(0x00);  // extra byte the header does not announce
    EXPECT_THROW((void)parse_frame(frame), RpcError);
}

// ---- meta-put-batch frames at the dispatcher ---------------------------------

class MetaBatchFrame : public ::testing::Test {
  protected:
    static constexpr NodeId kMp = 5;

    MetaBatchFrame() { dispatcher_.add_metadata_provider(kMp, &mp_); }

    static std::vector<meta::KeyedNode> three_nodes() {
        return {{meta::MetaKey{1, 2, {0, 1}}, meta::MetaNode::leaf({7}, 1, 8)},
                {meta::MetaKey{1, 2, {1, 1}}, meta::MetaNode::leaf({7}, 2, 8)},
                {meta::MetaKey{1, 2, {0, 2}},
                 meta::MetaNode::inner({1, 2}, {1, 2})}};
    }

    /// Dispatch a request to the provider; returns the response status.
    Status send(MsgType type, const Buffer& payload) {
        WireWriter w;
        w.raw(payload);
        const Buffer resp =
            dispatcher_.dispatch(seal_request(type, kMp, std::move(w)));
        return parse_frame(resp).status();
    }

    dht::MetadataProvider mp_{kMp, 0};
    Dispatcher dispatcher_;
};

TEST_F(MetaBatchFrame, StoresEveryRecord) {
    WireWriter w;
    put_meta_batch(w, three_nodes());
    EXPECT_EQ(send(MsgType::kMetaPutBatch, w.take()), Status::kOk);
    EXPECT_EQ(mp_.stored_nodes(), 3u);
    EXPECT_EQ(mp_.try_get(meta::MetaKey{1, 2, {1, 1}}).value().chunk_uid, 2u);
}

TEST_F(MetaBatchFrame, TruncatedRecordStoresNothing) {
    WireWriter w;
    put_meta_batch(w, three_nodes());
    Buffer payload = w.take();
    // Cut into the last record: the first two are complete, yet the
    // whole frame is rejected before anything is stored.
    payload.resize(payload.size() - 3);
    EXPECT_EQ(send(MsgType::kMetaPutBatch, payload), Status::kRpcError);
    EXPECT_EQ(mp_.stored_nodes(), 0u);
}

TEST_F(MetaBatchFrame, OversizedOrZeroCountStoresNothing) {
    WireWriter body;
    put_meta_batch(body, three_nodes());
    const Buffer records = body.take();
    const ConstBytes after_count = ConstBytes(records).subspan(1);

    // A count the payload cannot hold (each record carries a 32-byte
    // key) is refused before any allocation or store.
    WireWriter huge;
    huge.varint(1'000'000);
    huge.raw(after_count);
    EXPECT_EQ(send(MsgType::kMetaPutBatch, huge.take()), Status::kRpcError);

    WireWriter zero;
    zero.varint(0);
    EXPECT_EQ(send(MsgType::kMetaPutBatch, zero.take()), Status::kRpcError);
    EXPECT_EQ(mp_.stored_nodes(), 0u);
}

TEST_F(MetaBatchFrame, RetiredSingleNodeTagRejected) {
    // Tag 48 was the v7 single-node meta-put; it is reserved now.
    const auto nodes = three_nodes();
    WireWriter w;
    put_meta_key(w, nodes[0].key);
    put_meta_node(w, nodes[0].node);
    EXPECT_EQ(send(static_cast<MsgType>(48), w.take()), Status::kRpcError);
    EXPECT_EQ(mp_.stored_nodes(), 0u);
}

// ---- chunk-get-batch frames at the dispatcher --------------------------------

class ChunkBatchFrame : public ::testing::Test {
  protected:
    ChunkBatchFrame() { dispatcher_.add_data_provider(dp_.node(), &dp_); }

    /// Store a \p bytes-long chunk with a pattern derived from \p uid.
    Buffer store(std::uint64_t uid, std::size_t bytes) {
        Buffer b = make_pattern(9, uid, 0, bytes);
        dp_.put_chunk(chunk::ChunkKey{9, uid},
                      std::make_shared<const Buffer>(b));
        return b;
    }

    RpcResponse send(const Buffer& payload) {
        WireWriter w;
        w.raw(payload);
        return dispatcher_.dispatch_sg(
            seal_request(MsgType::kChunkGetBatch, dp_.node(), std::move(w)),
            Clock::now());
    }

    provider::DataProvider dp_{3, std::make_unique<chunk::RamStore>()};
    Dispatcher dispatcher_;
};

TEST_F(ChunkBatchFrame, MalformedBatchReadsNoKey) {
    store(1, 4096);
    const std::vector<ChunkRead> reads = {
        {chunk::ChunkKey{9, 1}, 0, 4096},
        {chunk::ChunkKey{9, 1}, 0, 100},
        {chunk::ChunkKey{9, 1}, 100, 100}};
    std::vector<Buffer> bad;
    {
        WireWriter w;
        w.varint(0);  // empty batch
        bad.push_back(w.take());
    }
    {
        WireWriter w;  // count 4, three records: the count overruns
        w.varint(4);
        for (const ChunkRead& rd : reads) {
            put_chunk_key(w, rd.key);
            w.u64(rd.offset);
            w.u64(rd.size);
        }
        w.u64(0);  // enough bytes for the count check, not a record
        bad.push_back(w.take());
    }
    {
        WireWriter w;  // two whole records, the last one cut short
        put_chunk_reads(w, reads);
        Buffer b = w.take();
        b.resize(b.size() - 3);
        bad.push_back(std::move(b));
    }
    const std::uint64_t ops = dp_.stats().ops.get();
    for (const Buffer& payload : bad) {
        const RpcResponse resp = send(payload);
        EXPECT_EQ(parse_frame(resp.head).status(), Status::kRpcError);
        EXPECT_TRUE(resp.tails.empty());
    }
    EXPECT_EQ(dp_.stats().ops.get(), ops) << "a malformed batch read a key";
}

TEST_F(ChunkBatchFrame, EachKeyGetsItsStatusAndItsOwnTail) {
    const Buffer a = store(1, 4096);
    const Buffer b = store(2, 1000);
    const std::vector<ChunkRead> reads = {
        {chunk::ChunkKey{9, 1}, 100, 200},
        {chunk::ChunkKey{9, 7}, 0, 64},  // not stored here
        {chunk::ChunkKey{9, 2}, 0, 0},   // whole chunk
        {chunk::ChunkKey{9, 1}, 4000, 500}};  // clamped to 96 bytes
    WireWriter w;
    put_chunk_reads(w, reads);
    const RpcResponse resp = send(w.take());
    ASSERT_EQ(resp.tails.size(), 3u);
    EXPECT_EQ(resp.tails[0].size(), 200u);
    EXPECT_EQ(resp.tails[1].size(), 1000u);
    EXPECT_EQ(resp.tails[2].size(), 96u);
    EXPECT_EQ(0, std::memcmp(resp.tails[0].bytes.data(), a.data() + 100, 200));
    EXPECT_EQ(0, std::memcmp(resp.tails[1].bytes.data(), b.data(), 1000));
    EXPECT_EQ(0, std::memcmp(resp.tails[2].bytes.data(), a.data() + 4000, 96));

    // The flattened frame is what a client decodes: entries, then the
    // slices back to back.
    const Buffer frame = RpcResponse(resp).flatten();
    const FrameView f = parse_frame(frame);
    ASSERT_EQ(f.status(), Status::kOk);
    WireReader r(f.payload);
    EXPECT_EQ(r.varint(), 4u);
    const std::vector<ChunkReadEntry> expected = {
        {ChunkReadStatus::kServed, 4096, 200},
        {ChunkReadStatus::kNotFound, 0, 0},
        {ChunkReadStatus::kServed, 1000, 1000},
        {ChunkReadStatus::kServed, 4096, 96}};
    for (const ChunkReadEntry& e : expected) {
        EXPECT_EQ(get_chunk_read_entry(r), e);
    }
    EXPECT_EQ(r.remaining(), 200u + 1000u + 96u);
}

TEST_F(ChunkBatchFrame, ReplyStopsAtTheByteCap) {
    constexpr std::size_t kBig = kChunkBatchReplyCap / 2;
    store(1, kBig);
    store(2, 2 * kChunkBatchReplyCap);
    std::vector<ChunkRead> reads;
    for (int i = 0; i < 3; ++i) {
        reads.push_back({chunk::ChunkKey{9, 1}, 0, kBig});
    }
    reads.push_back({chunk::ChunkKey{9, 1}, 0, 10});
    WireWriter w;
    put_chunk_reads(w, reads);
    RpcResponse resp = send(w.take());
    // Two halves fill the cap exactly; the third would cross it, so it
    // and everything after it are left for the client to re-issue.
    EXPECT_EQ(resp.tails.size(), 2u);
    EXPECT_EQ(resp.tail_bytes(), kChunkBatchReplyCap);
    {
        const Buffer frame = std::move(resp).flatten();
        WireReader r(parse_frame(frame).payload);
        EXPECT_EQ(r.varint(), 4u);
        for (int i = 0; i < 4; ++i) {
            EXPECT_EQ(get_chunk_read_entry(r).status,
                      i < 2 ? ChunkReadStatus::kServed
                            : ChunkReadStatus::kNotServed)
                << i;
        }
    }
    // The first key is served whatever its size, so a re-issue always
    // makes progress.
    const std::vector<ChunkRead> big = {{chunk::ChunkKey{9, 2}, 0, 0},
                                        {chunk::ChunkKey{9, 1}, 0, 10}};
    WireWriter w2;
    put_chunk_reads(w2, big);
    resp = send(w2.take());
    ASSERT_EQ(resp.tails.size(), 1u);
    EXPECT_EQ(resp.tails[0].size(), 2 * kChunkBatchReplyCap);
}

TEST(RetiredTag, StatusTagsRejected) {
    // Tags 11 (v8 dedup-status), 29 and 70 (v9 vm-status and
    // repair-status) are reserved: the dedup_*/cas_*, vm_*, repair_*
    // and pm_provider_* series kMetricsDump serves carry every field.
    // Tag 2 (v10 single-chunk get) is a chunk-get-batch of one since
    // v11, and tag 65 (v10 mark-dead) is gone: a client reports a
    // suspect with kReportFailure, which the manager corroborates.
    // Since v12, tag 3 (chunk-erase) is gone — GC releases references
    // with chunk-decref — tags 8 and 9 (chunk-pull-start/-some) are a
    // ranged one-key chunk-get-batch, and tag 49 (meta-get) is a
    // meta-try-get whose miss the client throws. Since v14, tag 28
    // (blob-clone-from) is gone: every clone is a blob-clone on its
    // source's shard. Since v15, tags 5-7 (chunk-push-start/-some/-end)
    // are gone: every chunk is one chunk-put. Each is sent with its last
    // live body.
    provider::DataProvider dp(3, std::make_unique<chunk::RamStore>());
    const chunk::ChunkKey key{1, 1};
    dp.put_chunk(key, std::make_shared<const Buffer>(Buffer(64, 7)));
    version::VersionManager vm;
    provider::ProviderManager pm(provider::PlacementStrategy::kRoundRobin);
    pm.register_provider(dp.node());
    dht::MetadataProvider mp(4, 0);
    const meta::KeyedNode node{meta::MetaKey{1, 1, {0, 1}},
                               meta::MetaNode::leaf({3}, 1, 64)};
    mp.put_many({&node, 1});
    Dispatcher d;
    d.add_data_provider(dp.node(), &dp);
    d.add_version_manager(1, &vm);
    d.set_provider_manager(2, &pm);
    d.add_metadata_provider(mp.node(), &mp);
    // The v10 kChunkGet and v11 kChunkPullSome body: key, offset, size.
    WireWriter get;
    put_chunk_key(get, key);
    get.u64(0);
    get.u64(0);
    const Buffer get_body = get.take();
    WireWriter key_only;  // the v11 kChunkErase and kChunkPullStart body
    put_chunk_key(key_only, key);
    const Buffer key_body = key_only.take();
    WireWriter meta_get;  // the v11 kMetaGet body: the node key
    put_meta_key(meta_get, node.key);
    const Buffer meta_body = meta_get.take();
    WireWriter dead;  // the v10 kMarkDead body: the node id
    dead.u32(dp.node());
    const Buffer dead_body = dead.take();
    // The v13 tag-28 body: chunk size, replication, origin tree ref.
    WireWriter old_clone;
    old_clone.u64(8);
    old_clone.u32(1);
    put_tree_ref(old_clone, meta::TreeRef{});
    const Buffer old_clone_body = old_clone.take();
    // The v14 streamed push of a chunk the provider does not hold:
    // start (key, total), one slice (xfer, offset, bytes), end (xfer).
    const chunk::ChunkKey pushed{1, 2};
    WireWriter push_start;
    put_chunk_key(push_start, pushed);
    push_start.u64(64);
    const Buffer push_start_body = push_start.take();
    WireWriter push_some;
    push_some.u64(1);
    push_some.u64(0);
    push_some.blob(Buffer(64, 9));
    const Buffer push_some_body = push_some.take();
    WireWriter push_end;
    push_end.u64(1);
    const Buffer push_end_body = push_end.take();
    for (const auto& [tag, dst, body] :
         {std::tuple{2, dp.node(), get_body},
          std::tuple{3, dp.node(), key_body},
          std::tuple{5, dp.node(), push_start_body},
          std::tuple{6, dp.node(), push_some_body},
          std::tuple{7, dp.node(), push_end_body},
          std::tuple{8, dp.node(), key_body},
          std::tuple{9, dp.node(), get_body},
          std::tuple{11, dp.node(), Buffer{}},
          std::tuple{28, NodeId{1}, old_clone_body},
          std::tuple{29, NodeId{1}, Buffer{}},
          std::tuple{49, mp.node(), meta_body},
          std::tuple{65, NodeId{2}, dead_body},
          std::tuple{70, NodeId{2}, Buffer{}}}) {
        const auto type = static_cast<MsgType>(tag);
        EXPECT_STREQ(to_string(type), "?");
        EXPECT_EQ(d.dispatch_class(type), DispatchClass::kPool);
        WireWriter w;
        w.raw(body);
        const Buffer resp = d.dispatch(seal_request(type, dst, std::move(w)));
        EXPECT_EQ(parse_frame(resp).status(), Status::kRpcError) << tag;
    }
    EXPECT_TRUE(pm.is_alive(dp.node())) << "a retired mark-dead took effect";
    ASSERT_TRUE(dp.has_chunk(key)) << "a retired chunk-erase took effect";
    EXPECT_EQ(dp.get_chunk(key)->size(), 64u);
    EXPECT_FALSE(dp.has_chunk(pushed)) << "a retired streamed push stored";
    EXPECT_EQ(dp.store().count(), 1u);
    EXPECT_EQ(vm.blob_count(), 0u) << "a retired blob-clone-from took effect";
}

// ---- v7 header layout (wire ABI pin) -----------------------------------------

TEST(FrameV7, GoldenHeaderLayout) {
    // Byte-exact pin of the 40-byte v7 header. If this test breaks, the
    // wire ABI changed: bump kWireVersion and update DESIGN.md §7.
    static_assert(kWireVersion == 15);
    static_assert(kFrameHeaderSize == 40);
    static_assert(kFrameTypeOffset == 6);
    static_assert(kFrameLenOffset == 12);
    static_assert(kFrameCorrOffset == 16);
    static_assert(kFrameTraceOffset == 24);

    WireWriter body;
    body.u64(0x1122334455667788ULL);
    Buffer frame = seal_request(MsgType::kGetVersion, 0x0a0b0c0d,
                                std::move(body));
    set_frame_corr(frame, 0x00c0ffee00c0ffeeULL);
    trace::TraceContext ctx;
    ctx.trace_id = 0xfeedfacecafebeefULL;
    ctx.span_id = 0x21436587u;
    ctx.flags = trace::TraceContext::kSampled;
    set_frame_trace(frame, ctx);

    ASSERT_EQ(frame.size(), kFrameHeaderSize + 8);
    const std::uint8_t expected_header[kFrameHeaderSize] = {
        0x50, 0x52, 0x53, 0x42,  //  0: magic "PRSB" little-endian
        0x0f,                    //  4: wire version
        0x00,                    //  5: kind = request
        0x15, 0x00,              //  6: MsgType::kGetVersion tag (21)
        0x0d, 0x0c, 0x0b, 0x0a,  //  8: destination node id
        0x08, 0x00, 0x00, 0x00,  // 12: payload length
        0xee, 0xff, 0xc0, 0x00, 0xee, 0xff, 0xc0, 0x00,  // 16: corr id
        0xef, 0xbe, 0xfe, 0xca, 0xce, 0xfa, 0xed, 0xfe,  // 24: trace id
        0x87, 0x65, 0x43, 0x21,  // 32: span id
        0x01,                    // 36: flags (sampled)
        0x00, 0x00, 0x00,        // 37: reserved, zero
    };
    for (std::size_t i = 0; i < kFrameHeaderSize; ++i) {
        EXPECT_EQ(frame[i], expected_header[i]) << "header byte " << i;
    }
    EXPECT_EQ(static_cast<std::uint16_t>(MsgType::kGetVersion), 21)
        << "update the golden bytes if the tag moved";
    EXPECT_EQ(frame_type(frame), MsgType::kGetVersion);
}

TEST(FrameV15, PreviousWireVersionRejected) {
    // A v14 peer may still send streamed pushes (tags 5-7): its frames
    // must fail the header check before any tag is looked at.
    WireWriter body;
    body.u64(1);
    Buffer frame = seal_request(MsgType::kGetVersion, 1, std::move(body));
    frame[4] = 14;
    EXPECT_THROW((void)parse_frame(frame), RpcError);
    frame[4] = kWireVersion;
    EXPECT_NO_THROW((void)parse_frame(frame));
}

TEST(FrameV15, RetiredTagsAddPushTags) {
    // v15 retired tags 5-7 (the streamed push); no other tag left or
    // returned.
    const std::vector<std::pair<int, int>> expected = {
        {2, 11},  {3, 12},  {5, 15}, {6, 15},  {7, 15},  {8, 12}, {9, 12},
        {11, 9},  {28, 14}, {29, 10}, {48, 8}, {49, 12}, {65, 11},
        {70, 10}};
    std::vector<std::pair<int, int>> actual;
    for (const RetiredTag& t : kRetiredTags) {
        actual.emplace_back(t.tag, t.wire_version);
    }
    EXPECT_EQ(actual, expected);
}

// ---- dispatch classes (where the TCP server runs each family) ----------------

/// Every tag MsgType names; to_string is exhaustive over the enum, so a
/// new tag joins this list without an edit here.
std::vector<MsgType> all_types() {
    std::vector<MsgType> out;
    for (std::uint32_t tag = 0; tag <= 0xffff; ++tag) {
        const auto t = static_cast<MsgType>(tag);
        if (std::string_view(to_string(t)) != "?") {
            out.push_back(t);
        }
    }
    return out;
}

TEST(DispatchClass, EveryTagHasExactlyOneClass) {
    const Dispatcher d;
    const std::vector<MsgType> types = all_types();
    ASSERT_EQ(types.size(), 27u);
    std::set<std::string> loop;
    std::set<std::string> own_thread;
    for (const MsgType t : types) {
        const DispatchClass c = d.dispatch_class(t);
        ASSERT_TRUE(c == DispatchClass::kLoop || c == DispatchClass::kPool ||
                    c == DispatchClass::kOwnThread)
            << to_string(t);
        if (c == DispatchClass::kLoop) {
            loop.insert(to_string(t));
        } else if (c == DispatchClass::kOwnThread) {
            own_thread.insert(to_string(t));
        }
    }
    // The inline set is deliberate: growing it needs the handler audit
    // dispatcher.hpp's kLoop contract asks for.
    const std::set<std::string> expected_loop = {
        "topology",      "blob-create",    "blob-clone",   "blob-info",
        "assign",        "commit",         "get-version",  "descriptor-of",
        "pin",           "unpin",          "meta-try-get", "meta-erase",
        "meta-put-batch", "place"};
    EXPECT_EQ(loop, expected_loop);
    EXPECT_EQ(own_thread, std::set<std::string>{"wait-published"});
    // Unknown or retired tags (corrupt frames) keep the pool; see also
    // RetiredTag.StatusTagsRejected.
    EXPECT_EQ(d.dispatch_class(static_cast<MsgType>(48)), DispatchClass::kPool);
    EXPECT_EQ(d.dispatch_class(static_cast<MsgType>(0xffff)),
              DispatchClass::kPool);
}

TEST(DispatchClass, BlockingOrUnboundedFamiliesNeverRunOnTheLoop) {
    // Each of these can block, sleep, scale with payload or history, or
    // issue nested RPCs: on a loop thread it would stall every
    // connection that loop serves.
    const Dispatcher d;
    std::vector<MsgType> never = {
        MsgType::kWaitPublished,   MsgType::kProviderJoin,
        MsgType::kProviderAnnounce, MsgType::kProviderBeat,
        MsgType::kHistory,         MsgType::kRetire,
        MsgType::kMetricsDump,     MsgType::kTraceDump};
    for (const MsgType t : all_types()) {
        if (std::string_view(to_string(t)).starts_with("chunk-")) {
            never.push_back(t);
        }
    }
    ASSERT_EQ(never.size(), 8u + 4u);  // four chunk-* families
    for (const MsgType t : never) {
        EXPECT_NE(d.dispatch_class(t), DispatchClass::kLoop) << to_string(t);
    }
}

TEST(DispatchClass, GatedMetadataProviderKeepsMetaFamiliesOffTheLoop) {
    // MetadataProvider's capacity gate (meta_ops_per_second, set by the
    // simulator benches) sleeps in every op. A dispatcher fronting such
    // a provider sends the metadata families to the pool; without a gate
    // they run inline.
    const std::vector<MsgType> meta = {MsgType::kMetaTryGet,
                                       MsgType::kMetaErase,
                                       MsgType::kMetaPutBatch};
    dht::MetadataProvider free_mp(7, 0);
    Dispatcher ungated;
    ungated.add_metadata_provider(free_mp.node(), &free_mp);
    dht::MetadataProvider gated_mp(8, 1000);
    Dispatcher gated;
    gated.add_metadata_provider(free_mp.node(), &free_mp);
    gated.add_metadata_provider(gated_mp.node(), &gated_mp);
    for (const MsgType t : meta) {
        EXPECT_EQ(ungated.dispatch_class(t), DispatchClass::kLoop)
            << to_string(t);
        EXPECT_EQ(gated.dispatch_class(t), DispatchClass::kPool)
            << to_string(t);
    }
    // The gate is the metadata service's alone.
    EXPECT_EQ(gated.dispatch_class(MsgType::kAssign), DispatchClass::kLoop);
    EXPECT_EQ(gated.dispatch_class(MsgType::kPlace), DispatchClass::kLoop);
}

TEST(FrameV7, TraceContextRoundTrip) {
    Buffer frame = seal_request(MsgType::kAssign, 1, WireWriter{});
    // Untraced by default: sealed frames carry an all-zero context.
    EXPECT_EQ(frame_trace(frame), trace::TraceContext{});

    trace::TraceContext ctx;
    ctx.trace_id = 0xabcdef0123456789ULL;
    ctx.span_id = 0xdeadbeefu;
    ctx.flags = trace::TraceContext::kSampled;
    set_frame_trace(frame, ctx);
    EXPECT_EQ(frame_trace(frame), ctx);

    // The context must survive parse_frame untouched (and not disturb
    // the rest of the header).
    const FrameView f = parse_frame(frame);
    EXPECT_EQ(f.type, MsgType::kAssign);
    EXPECT_EQ(f.dst(), 1u);
    EXPECT_EQ(frame_trace(frame), ctx);
}

TEST(FrameV7, TraceAccessorsRejectShortFrames) {
    Buffer runt(kFrameHeaderSize - 1, 0);
    EXPECT_THROW((void)frame_trace(runt), RpcError);
    trace::TraceContext ctx;
    ctx.trace_id = 1;
    EXPECT_THROW(set_frame_trace(runt, ctx), RpcError);
}

// ---- observability payload codecs --------------------------------------------

TEST(MetricsCodec, SampleRoundTripsEveryKind) {
    MetricSample s;
    s.name = "rpc_server_latency_us";
    s.labels = {{"op", "chunk-put"}, {"node", "3"}};
    s.kind = MetricKind::kHistogram;
    s.value = 1;
    s.high_water = 2;
    s.count = 17;
    s.sum = 123456;
    s.min = 3;
    s.max = 99999;
    s.buckets = {{1, 4}, {255, 9}, {1023, 4}};

    WireWriter w;
    put_metric_sample(w, s);
    const Buffer buf = w.take();
    WireReader r{ConstBytes(buf)};
    const MetricSample got = get_metric_sample(r);
    r.expect_end();
    EXPECT_EQ(got, s);
}

TEST(MetricsCodec, SnapshotRoundTrip) {
    MetricsSnapshot snap;
    for (int i = 0; i < 5; ++i) {
        MetricSample s;
        s.name = "series_" + std::to_string(i);
        s.labels = {{"i", std::to_string(i)}};
        s.kind = static_cast<MetricKind>(i);
        s.value = static_cast<std::uint64_t>(i) * 1000;
        snap.samples.push_back(std::move(s));
    }
    WireWriter w;
    put_metrics_snapshot(w, snap);
    const Buffer buf = w.take();
    WireReader r{ConstBytes(buf)};
    const MetricsSnapshot got = get_metrics_snapshot(r);
    r.expect_end();
    EXPECT_EQ(got, snap);
}

TEST(TraceCodec, SpanRecordRoundTrip) {
    trace::SpanRecord s;
    s.trace_id = 0x1234567890abcdefULL;
    s.span_id = 42;
    s.parent_span = 7;
    s.start_unix_us = 1'700'000'000'000'000ULL;
    s.queue_us = 12;
    s.duration_us = 345;
    s.bytes = 65536;
    s.node = 9;
    s.kind = trace::SpanRecord::kServer;
    s.status = 2;
    s.set_op("chunk-push-some");

    WireWriter w;
    put_span_record(w, s);
    const Buffer buf = w.take();
    WireReader r{ConstBytes(buf)};
    const trace::SpanRecord got = get_span_record(r);
    r.expect_end();
    EXPECT_EQ(std::memcmp(&got, &s, sizeof(s)), 0);
}

TEST(TraceCodec, SpanRecordVectorRoundTripAndTruncationThrows) {
    std::vector<trace::SpanRecord> spans(3);
    for (std::uint32_t i = 0; i < spans.size(); ++i) {
        spans[i].trace_id = 0xabc;
        spans[i].span_id = i + 1;
        spans[i].set_op("op");
    }
    WireWriter w;
    put_span_records(w, spans);
    const Buffer buf = w.take();
    {
        WireReader r{ConstBytes(buf)};
        const auto got = get_span_records(r);
        r.expect_end();
        ASSERT_EQ(got.size(), spans.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(std::memcmp(&got[i], &spans[i], sizeof spans[i]), 0);
        }
    }
    for (std::size_t n = 0; n < buf.size(); ++n) {
        WireReader r{ConstBytes(buf.data(), n)};
        EXPECT_THROW((void)get_span_records(r), RpcError)
            << "prefix length " << n;
    }
}

}  // namespace
}  // namespace blobseer::rpc
