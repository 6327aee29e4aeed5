// End-to-end tests for the network edge (net/server.h + net/client.h):
// an in-process daemon on an ephemeral loopback port, answers checked
// against a Warshall oracle, plus the error-isolation contract — a bad
// request fails only its own reply, a garbage connection dies alone while
// a good one keeps streaming, and shutdown in either order (server first
// or service first) drains every in-flight pipelined future instead of
// hanging a socket. This suite runs under TSan in CI (the tsan preset
// filter includes it): reader/writer/demux thread interleavings are part
// of what is being tested.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "dsa/maintenance.h"
#include "dsa/service.h"
#include "fragment/linear.h"
#include "graph/builder.h"
#include "graph/generator.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"
#include "util/rng.h"

namespace tcf {
namespace {

using namespace std::chrono_literals;

/// All-pairs min-plus closure, the oracle the daemon must agree with.
std::vector<std::vector<Weight>> WarshallCostOracle(const Graph& g) {
  const size_t n = g.NumNodes();
  std::vector<std::vector<Weight>> d(n, std::vector<Weight>(n, kInfinity));
  for (NodeId v = 0; v < n; ++v) d[v][v] = 0.0;
  for (NodeId u = 0; u < n; ++u) {
    for (const auto& [v, w, id] : g.OutEdges(u)) {
      d[u][v] = std::min(d[u][v], w);
    }
  }
  for (size_t k = 0; k < n; ++k) {
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        d[i][j] = std::min(d[i][j], d[i][k] + d[k][j]);
      }
    }
  }
  return d;
}

TransportationGraph MakeTestGraph() {
  TransportationGraphOptions gopts;
  gopts.num_clusters = 3;
  gopts.nodes_per_cluster = 10;
  gopts.target_edges_per_cluster = 40.0;
  Rng rng(19);
  return GenerateTransportationGraph(gopts, &rng);
}

Fragmentation MakeTestFragmentation(const Graph& g) {
  LinearOptions lopts;
  lopts.num_fragments = 4;
  return LinearFragmentation(g, lopts).fragmentation;
}

/// One daemon stack on an ephemeral port: transportation graph (3
/// clusters x 10 nodes), linear fragmentation, maintained database,
/// query service, server. Everything lives in the member-init list
/// because MaintainedDatabase is non-movable and Fragmentation keeps a
/// pointer into `t.graph` (declaration order IS the lifetime contract).
struct DaemonStack {
  TransportationGraph t;
  Fragmentation frag;
  MaintainedDatabase mdb;
  QueryService service;
  Server server;

  DaemonStack()
      : t(MakeTestGraph()),
        frag(MakeTestFragmentation(t.graph)),
        mdb(MaintainedDatabase::FromFragmentation(frag)),
        service(&mdb),
        server(&service) {}
};

class DaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    stack_ = std::make_unique<DaemonStack>();
    service_ = &stack_->service;
    server_ = &stack_->server;
    oracle_ = WarshallCostOracle(graph());
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    if (server_) server_->Stop();
    if (service_) service_->Shutdown();
  }

  const Graph& graph() const { return stack_->t.graph; }
  size_t NumNodes() const { return graph().NumNodes(); }
  uint16_t port() const { return server_->port(); }

  std::unique_ptr<Client> Connect() {
    Result<std::unique_ptr<Client>> c = Client::Connect("127.0.0.1", port());
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    return std::move(c).value();
  }

  void ExpectMatchesOracle(NodeId from, NodeId to, const Result<Weight>& got) {
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const Weight want = oracle_[from][to];
    if (want == kInfinity) {
      EXPECT_EQ(got.value(), kInfinity) << from << "->" << to;
    } else {
      EXPECT_NEAR(got.value(), want, 1e-9) << from << "->" << to;
    }
  }

  std::unique_ptr<DaemonStack> stack_;
  std::vector<std::vector<Weight>> oracle_;
  QueryService* service_ = nullptr;
  Server* server_ = nullptr;
};

TEST_F(DaemonTest, PingPong) {
  auto client = Connect();
  EXPECT_TRUE(client->Ping().ok());
  EXPECT_TRUE(client->Ping().ok());
}

TEST_F(DaemonTest, BlockingQueriesMatchOracle) {
  auto client = Connect();
  Rng rng(23);
  for (int i = 0; i < 40; ++i) {
    const NodeId from = static_cast<NodeId>(rng.NextBounded(NumNodes()));
    const NodeId to = static_cast<NodeId>(rng.NextBounded(NumNodes()));
    ExpectMatchesOracle(from, to, client->ShortestPathCost(from, to));
  }
}

TEST_F(DaemonTest, PipelinedQueriesMatchOracle) {
  // 200 requests in flight on one connection; responses may resolve in
  // any order, the request ids must route every answer to its future.
  auto client = Connect();
  Rng rng(29);
  std::vector<std::pair<NodeId, NodeId>> queries;
  std::vector<std::future<Result<Weight>>> futures;
  for (int i = 0; i < 200; ++i) {
    const NodeId from = static_cast<NodeId>(rng.NextBounded(NumNodes()));
    const NodeId to = static_cast<NodeId>(rng.NextBounded(NumNodes()));
    queries.emplace_back(from, to);
    futures.push_back(client->SubmitShortestPath(from, to));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    ExpectMatchesOracle(queries[i].first, queries[i].second,
                        futures[i].get());
  }
}

TEST_F(DaemonTest, ManyClientsConcurrently) {
  constexpr size_t kClients = 4;
  std::vector<std::thread> threads;
  std::atomic<size_t> failures{0};
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c]() {
      auto client = Connect();
      Rng rng(100 + c);
      std::vector<std::pair<NodeId, NodeId>> queries;
      std::vector<std::future<Result<Weight>>> futures;
      for (int i = 0; i < 50; ++i) {
        const NodeId from = static_cast<NodeId>(rng.NextBounded(NumNodes()));
        const NodeId to = static_cast<NodeId>(rng.NextBounded(NumNodes()));
        queries.emplace_back(from, to);
        futures.push_back(client->SubmitShortestPath(from, to));
      }
      for (size_t i = 0; i < futures.size(); ++i) {
        Result<Weight> got = futures[i].get();
        const Weight want = oracle_[queries[i].first][queries[i].second];
        if (!got.ok() ||
            !(got.value() == want || std::abs(got.value() - want) < 1e-9)) {
          ++failures;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0u);
}

TEST_F(DaemonTest, BadEndpointFailsOnlyItsOwnReply) {
  auto client = Connect();
  // Pipeline: good, bad, good — the bad one resolves to kOutOfRange, the
  // neighbors still get answers on the same connection.
  auto good1 = client->SubmitShortestPath(0, 5);
  auto bad = client->SubmitShortestPath(0, static_cast<NodeId>(NumNodes()) + 7);
  auto good2 = client->SubmitShortestPath(5, 0);

  ExpectMatchesOracle(0, 5, good1.get());
  Result<Weight> bad_result = bad.get();
  ASSERT_FALSE(bad_result.ok());
  EXPECT_EQ(bad_result.status().code(), StatusCode::kOutOfRange);
  ExpectMatchesOracle(5, 0, good2.get());
  EXPECT_TRUE(client->Ping().ok());  // connection survives
}

/// Backend that fails every query from kIOErrorNode with an IOError, as a
/// paged database does when a page fails its checksum, and answers the
/// rest with from + to.
class IOErrorBackend : public ServiceBackend {
 public:
  static constexpr NodeId kIOErrorNode = 13;

  std::vector<Result<Weight>> ExecuteBatch(
      const std::vector<Query>& queries) override {
    std::vector<Result<Weight>> costs;
    for (const Query& q : queries) {
      if (q.from == kIOErrorNode) {
        costs.push_back(Status::IOError("page 3: checksum mismatch"));
      } else {
        costs.push_back(static_cast<Weight>(q.from) +
                        static_cast<Weight>(q.to));
      }
    }
    return costs;
  }
};

TEST(DaemonErrorCodes, StorageFailureReachesTheClientAsIOError) {
  // A query whose storage read fails is answered with io-error, not with
  // the shutdown code, and its neighbors on the connection are answered.
  IOErrorBackend backend;
  QueryService service(&backend);
  Server server(&service);
  ASSERT_TRUE(server.Start().ok());
  Result<std::unique_ptr<Client>> connected =
      Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  std::unique_ptr<Client> client = std::move(connected).value();

  auto good1 = client->SubmitShortestPath(1, 2);
  auto bad = client->SubmitShortestPath(IOErrorBackend::kIOErrorNode, 2);
  auto good2 = client->SubmitShortestPath(4, 5);

  Result<Weight> first = good1.get();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_DOUBLE_EQ(first.value(), 3.0);
  Result<Weight> failed = bad.get();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIOError)
      << failed.status().ToString();
  EXPECT_EQ(failed.status().message(), "page 3: checksum mismatch");
  Result<Weight> second = good2.get();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_DOUBLE_EQ(second.value(), 9.0);

  // The connection keeps streaming.
  EXPECT_TRUE(client->Ping().ok());
  Result<Weight> after = client->ShortestPathCost(6, 7);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_DOUBLE_EQ(after.value(), 13.0);

  client->Close();
  server.Stop();
  service.Shutdown();
}

TEST_F(DaemonTest, UnknownMessageTypeFailsOnlyThatRequest) {
  // Speak the framing by hand: an unknown type must produce a kError
  // echoing the request id, and the connection keeps working.
  Result<Socket> raw = ConnectTcp("127.0.0.1", port());
  ASSERT_TRUE(raw.ok());
  const Socket& sock = raw.value();
  std::string frame = EncodeFrame(MessageType::kPing, 77, "");
  frame[5] = static_cast<char>(0x6e);  // no such type
  ASSERT_TRUE(WriteAll(sock, frame.data(), frame.size()).ok());

  Result<Frame> reply = ReadFrame(sock, kMaxPayloadBytes);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.value().header.type, MessageType::kError);
  EXPECT_EQ(reply.value().header.request_id, 77u);

  // Same socket still answers a well-formed ping.
  const std::string ping = EncodeFrame(MessageType::kPing, 78, "");
  ASSERT_TRUE(WriteAll(sock, ping.data(), ping.size()).ok());
  Result<Frame> pong = ReadFrame(sock, kMaxPayloadBytes);
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong.value().header.type, MessageType::kPong);
  EXPECT_EQ(pong.value().header.request_id, 78u);
}

TEST_F(DaemonTest, MalformedPayloadFailsOnlyThatRequest) {
  Result<Socket> raw = ConnectTcp("127.0.0.1", port());
  ASSERT_TRUE(raw.ok());
  const Socket& sock = raw.value();
  // A kQueryRequest whose payload is one stray byte: request-level error.
  const std::string frame =
      EncodeFrame(MessageType::kQueryRequest, 5, std::string("\x01", 1));
  ASSERT_TRUE(WriteAll(sock, frame.data(), frame.size()).ok());
  Result<Frame> reply = ReadFrame(sock, kMaxPayloadBytes);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().header.type, MessageType::kError);
  EXPECT_EQ(reply.value().header.request_id, 5u);

  const std::string ping = EncodeFrame(MessageType::kPing, 6, "");
  ASSERT_TRUE(WriteAll(sock, ping.data(), ping.size()).ok());
  Result<Frame> pong = ReadFrame(sock, kMaxPayloadBytes);
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(pong.value().header.type, MessageType::kPong);
}

TEST_F(DaemonTest, GarbageConnectionDiesAloneWhileGoodOneStreams) {
  auto good = Connect();

  // The hostile connection writes noise that cannot frame.
  Result<Socket> raw = ConnectTcp("127.0.0.1", port());
  ASSERT_TRUE(raw.ok());
  const Socket& bad_sock = raw.value();
  const std::string garbage(64, '\x5a');
  ASSERT_TRUE(WriteAll(bad_sock, garbage.data(), garbage.size()).ok());

  // It gets one connection-scoped error frame (request id 0), then EOF.
  Result<Frame> death = ReadFrame(bad_sock, kMaxPayloadBytes);
  ASSERT_TRUE(death.ok()) << death.status().ToString();
  EXPECT_EQ(death.value().header.type, MessageType::kError);
  EXPECT_EQ(death.value().header.request_id, 0u);
  ErrorResponseMsg err;
  ASSERT_TRUE(DecodeErrorResponse(death.value().payload_view(), &err).ok());
  EXPECT_FALSE(err.ToStatus().ok());
  Result<Frame> eof = ReadFrame(bad_sock, kMaxPayloadBytes);
  EXPECT_FALSE(eof.ok());  // closed behind the error

  // Meanwhile the good client streams on, unbothered.
  Rng rng(31);
  for (int i = 0; i < 20; ++i) {
    const NodeId from = static_cast<NodeId>(rng.NextBounded(NumNodes()));
    const NodeId to = static_cast<NodeId>(rng.NextBounded(NumNodes()));
    ExpectMatchesOracle(from, to, good->ShortestPathCost(from, to));
  }
}

TEST_F(DaemonTest, TruncatedFrameKillsOnlyThatConnection) {
  auto good = Connect();
  {
    // Write a frame header promising 12 payload bytes, deliver 3, close.
    Result<Socket> raw = ConnectTcp("127.0.0.1", port());
    ASSERT_TRUE(raw.ok());
    std::string frame = EncodeFrame(MessageType::kQueryRequest, 9,
                                    std::string(12, 'x'));
    frame.resize(kFrameHeaderSize + 3);
    ASSERT_TRUE(WriteAll(raw.value(), frame.data(), frame.size()).ok());
  }  // destructor closes mid-frame
  EXPECT_TRUE(good->Ping().ok());
  ExpectMatchesOracle(0, 7, good->ShortestPathCost(0, 7));
}

TEST_F(DaemonTest, OversizedFrameRejected) {
  Result<Socket> raw = ConnectTcp("127.0.0.1", port());
  ASSERT_TRUE(raw.ok());
  const Socket& sock = raw.value();
  // Header claims a payload beyond ServerOptions::max_payload_bytes.
  std::string frame = EncodeFrame(MessageType::kQueryRequest, 11, "");
  const uint32_t huge = (1u << 20) + 1;
  std::memcpy(frame.data() + 16, &huge, sizeof(huge));
  ASSERT_TRUE(WriteAll(sock, frame.data(), frame.size()).ok());
  Result<Frame> death = ReadFrame(sock, kMaxPayloadBytes);
  ASSERT_TRUE(death.ok());
  EXPECT_EQ(death.value().header.type, MessageType::kError);
  EXPECT_EQ(death.value().header.request_id, 0u);
  EXPECT_FALSE(ReadFrame(sock, kMaxPayloadBytes).ok());  // then closed
}

TEST_F(DaemonTest, UpdateRoundTripShiftsAnswers) {
  auto client = Connect();
  // Find a pair whose shortest path uses edge 0->1 if one exists; simpler
  // and robust: reweight an existing edge heavier and check a direct
  // query agrees with a freshly computed oracle.
  const auto [v, w, id] = *graph().OutEdges(0).begin();
  const Weight new_weight = w * 3.0;
  Result<uint64_t> epoch =
      client->SubmitUpdate(EdgeUpdate::Reweight(0, v, new_weight)).get();
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_GE(epoch.value(), 1u);

  // Rebuild the oracle on the mutated graph. Reweight sets EVERY (0, v)
  // edge to the new weight, so mirror that here.
  GraphBuilder gb(graph().NumNodes());
  for (NodeId u = 0; u < graph().NumNodes(); ++u) {
    for (const auto& [dst, weight, eid] : graph().OutEdges(u)) {
      gb.AddEdge(u, dst, (u == 0 && dst == v) ? new_weight : weight);
    }
  }
  const Graph mutated = gb.Build();
  const auto new_oracle = WarshallCostOracle(mutated);

  Rng rng(37);
  for (int i = 0; i < 25; ++i) {
    const NodeId from = static_cast<NodeId>(rng.NextBounded(NumNodes()));
    const NodeId to = static_cast<NodeId>(rng.NextBounded(NumNodes()));
    Result<Weight> got = client->ShortestPathCost(from, to);
    ASSERT_TRUE(got.ok());
    const Weight want = new_oracle[from][to];
    if (want == kInfinity) {
      EXPECT_EQ(got.value(), kInfinity) << from << "->" << to;
    } else {
      EXPECT_NEAR(got.value(), want, 1e-9) << from << "->" << to;
    }
  }
}

TEST_F(DaemonTest, InvalidUpdateWeightFailsOnlyItsOwnRequest) {
  // A negative or NaN weight must come back as a request-scoped
  // invalid-argument error, publish no epoch, and leave the daemon and
  // the connection serving.
  auto client = Connect();
  const NodeId v = graph().OutEdges(0).begin()->dst;
  for (const Weight weight : {-1.0, std::nan("")}) {
    Result<uint64_t> epoch =
        client->SubmitUpdate(EdgeUpdate::Reweight(0, v, weight)).get();
    ASSERT_FALSE(epoch.ok()) << weight;
    EXPECT_EQ(epoch.status().code(), StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(stack_->mdb.epoch(), 0u);
  ExpectMatchesOracle(0, v, client->ShortestPathCost(0, v));
  EXPECT_TRUE(client->Ping().ok());
  auto other = Connect();
  ExpectMatchesOracle(v, 0, other->ShortestPathCost(v, 0));
}

TEST_F(DaemonTest, OutOfRangeInsertTargetFailsOnlyItsOwnRequest) {
  // An insert whose target names no fragment must come back as a
  // request-scoped out-of-range error and publish no epoch; the daemon
  // and the connection keep serving, and a valid update still applies.
  auto client = Connect();
  const auto first_bad = static_cast<FragmentId>(
      stack_->mdb.Snapshot().frag->NumFragments());
  for (const FragmentId target :
       {first_bad, std::numeric_limits<FragmentId>::max()}) {
    Result<uint64_t> epoch =
        client->SubmitUpdate(EdgeUpdate::Insert(0, 1, 1.0, target)).get();
    ASSERT_FALSE(epoch.ok()) << target;
    EXPECT_EQ(epoch.status().code(), StatusCode::kOutOfRange);
  }
  EXPECT_EQ(stack_->mdb.epoch(), 0u);
  ExpectMatchesOracle(0, 1, client->ShortestPathCost(0, 1));
  EXPECT_TRUE(client->Ping().ok());

  Result<uint64_t> applied =
      client->SubmitUpdate(EdgeUpdate::Insert(0, 1, 1.0, FragmentId{0}))
          .get();
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied.value(), 1u);
}

TEST_F(DaemonTest, ServerStopDrainsInFlightReplies) {
  // Every request ADMITTED before Stop() must resolve with its answer —
  // Stop half-closes the read side and the writers drain the reply queue
  // onto the wire before the socket closes. Wait for the server to have
  // read all 100 requests so the drain covers the whole pipeline
  // deterministically (requests still in the kernel buffer at Stop() are
  // a race the contract does not cover).
  auto client = Connect();
  std::vector<std::future<Result<Weight>>> futures;
  std::vector<std::pair<NodeId, NodeId>> queries;
  Rng rng(41);
  for (int i = 0; i < 100; ++i) {
    const NodeId from = static_cast<NodeId>(rng.NextBounded(NumNodes()));
    const NodeId to = static_cast<NodeId>(rng.NextBounded(NumNodes()));
    queries.emplace_back(from, to);
    futures.push_back(client->SubmitShortestPath(from, to));
  }
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (server_->stats().requests < 100 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_GE(server_->stats().requests, 100u) << "server never saw the burst";
  server_->Stop();
  for (size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(10s), std::future_status::ready)
        << "future " << i << " hung across server stop";
    ExpectMatchesOracle(queries[i].first, queries[i].second,
                        futures[i].get());
  }
}

TEST_F(DaemonTest, ServiceShutdownNeverHangsAClient) {
  // The regression this PR's shutdown audit mandates: shut the SERVICE
  // down first (the "wrong" order), with a pipeline in flight. Every
  // future must still resolve within the deadline — admitted queries
  // drain with values, the rest get clean error replies; no future may
  // hang on a dead socket.
  auto client = Connect();
  std::vector<std::future<Result<Weight>>> futures;
  Rng rng(43);
  std::atomic<bool> keep_submitting{true};
  std::thread submitter([&]() {
    for (int i = 0; i < 400 && keep_submitting.load(); ++i) {
      const NodeId from = static_cast<NodeId>(rng.NextBounded(NumNodes()));
      const NodeId to = static_cast<NodeId>(rng.NextBounded(NumNodes()));
      futures.push_back(client->SubmitShortestPath(from, to));
    }
  });
  // Let a prefix of the pipeline land, then pull the service out from
  // under the daemon.
  std::this_thread::sleep_for(5ms);
  service_->Shutdown();
  keep_submitting.store(false);
  submitter.join();

  size_t answered = 0, errored = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(10s), std::future_status::ready)
        << "future " << i << " hung across service shutdown";
    Result<Weight> got = futures[i].get();
    if (got.ok()) {
      ++answered;
    } else {
      ++errored;
      EXPECT_FALSE(got.status().message().empty());
    }
  }
  EXPECT_EQ(answered + errored, futures.size());
  // The connection is still a connection: late requests get clean
  // shutdown errors, not hangs.
  Result<Weight> late = client->ShortestPathCost(0, 1);
  if (!late.ok()) {
    EXPECT_NE(late.status().code(), StatusCode::kOk);
  }
}

TEST_F(DaemonTest, StopIsIdempotentAndStatsAreSane) {
  auto client = Connect();
  ASSERT_TRUE(client->Ping().ok());
  ExpectMatchesOracle(1, 2, client->ShortestPathCost(1, 2));
  client->Close();
  server_->Stop();
  server_->Stop();  // second stop is a no-op
  const ServerStats stats = server_->stats();
  EXPECT_GE(stats.connections_accepted, 1u);
  EXPECT_GE(stats.requests, 2u);
  EXPECT_GE(stats.replies_ok, 2u);
}

TEST_F(DaemonTest, ClientCloseFailsInFlightFutures) {
  auto client = Connect();
  std::vector<std::future<Result<Weight>>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(client->SubmitShortestPath(0, 5));
  }
  client->Close();
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(10s), std::future_status::ready);
    // Either answered before the close or failed cleanly by it.
    (void)f.get();
  }
}

}  // namespace
}  // namespace tcf
