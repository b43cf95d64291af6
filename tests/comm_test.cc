// Gradient-exchange seam tests (src/comm/, docs/DISTRIBUTED.md):
//  - ReplicaBatchPartition: the one batch-index -> rank/seed derivation.
//  - LocalExchange: the world=1 identity reproduces the pre-seam golden
//    trajectories bit-exactly (LP + NC, memory + disk).
//  - OrderedFold: deterministic across arrival-order permutations; the
//    comm.fold_order monitor catches out-of-order folds.
//  - ProcessGroupExchange: 2- and 4-process fork harnesses assert every
//    replica ends every epoch with the identical determinism hash, and a
//    dropped connection aborts the survivor before any partial apply.
//  - Shared-storage init: rank 0 alone creates a shared backing file and
//    writes its initial image; followers attach to it without truncating.
//  - PartitionBuffer ownership: dirty evictions of unowned partitions skip
//    their write-back (the shared-storage multi-replica contract).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/comm/gradient_exchange.h"
#include "src/comm/process_group_exchange.h"
#include "src/core/link_prediction_trainer.h"
#include "src/core/node_classification_trainer.h"
#include "src/core/trainer_base.h"
#include "src/data/datasets.h"
#include "src/graph/partition.h"
#include "src/storage/partition_buffer.h"
#include "src/util/binary_io.h"
#include "src/util/rv_monitor.h"

namespace mariusgnn {
namespace {

TEST(ReplicaBatchPartition, WorldOneIsTheIdentity) {
  ReplicaBatchPartition p;  // rank 0, world 1
  for (int64_t l : {0, 1, 7, 100}) {
    EXPECT_EQ(p.GlobalIndex(l), l);
  }
  EXPECT_EQ(p.LocalCount(13), 13);
  EXPECT_EQ(p.StepCount(13), 13);
  EXPECT_EQ(ReplicaBatchPartition::BatchSeed(42, 7), MixSeed(42, 7));
}

TEST(ReplicaBatchPartition, RanksPartitionTheGlobalStream) {
  for (int32_t world : {2, 3, 4}) {
    for (int64_t batches : {0, 1, 5, 8, 13}) {
      std::vector<int> consumed_by(static_cast<size_t>(batches), -1);
      int64_t total = 0;
      int64_t steps0 = -1;
      for (int32_t r = 0; r < world; ++r) {
        ReplicaBatchPartition p{r, world};
        const int64_t local = p.LocalCount(batches);
        total += local;
        for (int64_t l = 0; l < local; ++l) {
          const int64_t g = p.GlobalIndex(l);
          ASSERT_GE(g, 0);
          ASSERT_LT(g, batches);
          EXPECT_EQ(g % world, r);
          EXPECT_EQ(consumed_by[static_cast<size_t>(g)], -1)
              << "batch consumed twice";
          consumed_by[static_cast<size_t>(g)] = r;
        }
        // Every rank performs the same number of exchange steps; rank 0 is
        // never short (it owns batch 0, world, 2*world, ...).
        EXPECT_EQ(p.StepCount(batches), (batches + world - 1) / world);
        if (r == 0) {
          steps0 = local;
          EXPECT_EQ(p.StepCount(batches), local);
        }
        EXPECT_LE(local, steps0);
      }
      EXPECT_EQ(total, batches);  // exact cover, no batch dropped
    }
  }
}

TEST(LocalExchange, IsAZeroCopyIdentity) {
  LocalExchange exchange;
  std::vector<int64_t> nodes = {3, 5};
  Tensor grads(2, 2, {1.0f, 2.0f, 3.0f, 4.0f});
  GradientStep step;
  step.loss = 1.25f;
  step.sparse_nodes = &nodes;
  step.sparse_grads = &grads;
  const ReducedStep& r = exchange.Exchange(step);
  ASSERT_EQ(r.losses.size(), 1u);
  EXPECT_EQ(r.losses[0], 1.25f);
  EXPECT_EQ(r.contributed[0], 1);
  EXPECT_EQ(r.dense, nullptr);  // "apply p.grad in place"
  EXPECT_EQ(r.sparse_nodes, &nodes);  // aliases the caller, no copy
  EXPECT_EQ(r.sparse_grads, &grads);
  EXPECT_EQ(exchange.ExchangeEpochHash(0xabcdULL), 0xabcdULL);

  GradientStep empty;
  empty.has_batch = false;
  const ReducedStep& e = exchange.Exchange(empty);
  EXPECT_EQ(e.contributed[0], 0);
}

// ---------------------------------------------------------------------------
// The fork-based ProcessGroupExchange tests MUST register (and therefore run)
// before any test that spawns threads in this process: TSan cannot fork a
// multi-threaded parent whose children then start threads of their own, and
// the golden/ownership tests below spin up pipeline and IO-engine threads.
// gtest executes suites in registration order, so file order is the gate.
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Fork-based multi-process harness
// ---------------------------------------------------------------------------

// Binds 127.0.0.1:0 and listens; returns the fd and writes the kernel-chosen
// port. Binding BEFORE forking means the port can never collide with another
// test process, and rank 0 adopts the fd via ReplicaOptions::listen_fd.
int BindLocalhost(int backlog, int* port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  EXPECT_EQ(::listen(fd, backlog), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  *port = static_cast<int>(ntohs(addr.sin_port));
  return fd;
}

ReplicaOptions MakeReplica(int rank, int world, int port, int listen_fd) {
  ReplicaOptions replica;
  replica.rank = rank;
  replica.world_size = world;
  replica.port = port;
  if (rank == 0) {
    replica.listen_fd = listen_fd;
  }
  return replica;
}

// Child body: trains `epochs` epochs as one replica and writes one line per
// epoch — "<determinism_hash> <loss-bits>" — to `out_path`. Exit codes:
// 0 ok, 2 rv violation, 3 no comm traffic, 4 write failure.
int TrainLpReplica(const ReplicaOptions& replica, bool use_disk, int epochs,
                   const std::string& out_path) {
  Graph g = Fb15k237Like(0.03);
  TrainingConfig config;
  config.fanouts = {5};
  config.dims = {16, 16};
  config.batch_size = 512;
  config.num_negatives = 32;
  config.pipeline.enabled = false;
  if (use_disk) {
    config.storage.use_disk = true;
    config.storage.num_physical = 8;
    config.storage.num_logical = 4;
    config.storage.buffer_capacity = 4;
  }
  config.replica = replica;
  LinkPredictionTrainer trainer(&g, config);
  std::ofstream out(out_path);
  for (int e = 0; e < epochs; ++e) {
    const EpochStats s = trainer.TrainEpoch();
    if (s.rv_violations != 0) {
      return 2;
    }
    if (s.comm_bytes == 0 || s.comm_seconds <= 0.0) {
      return 3;
    }
    uint64_t loss_bits = 0;
    static_assert(sizeof(loss_bits) == sizeof(s.loss), "");
    std::memcpy(&loss_bits, &s.loss, sizeof(loss_bits));
    out << s.determinism_hash << " " << loss_bits << "\n";
  }
  out.close();
  return out.good() ? 0 : 4;
}

// Shared-storage-dir variant: every replica trains over the SAME backing
// embedding file, so the ownership map activates (each rank writes back only
// partitions with p % world == rank) and every set transition runs the
// drain-and-rendezvous write-back fence. Also pins rank-0-only
// auto-checkpointing. Extra exit codes: 5 rank 0 did not auto-save,
// 6 a follower auto-saved.
int TrainLpReplicaSharedDisk(const ReplicaOptions& replica,
                             const std::string& dir, int epochs,
                             const std::string& out_path) {
  Graph g = Fb15k237Like(0.03);
  TrainingConfig config;
  config.fanouts = {5};
  config.dims = {16, 16};
  config.batch_size = 512;
  config.num_negatives = 32;
  config.pipeline.enabled = false;
  config.storage.use_disk = true;
  config.storage.num_physical = 8;
  config.storage.num_logical = 4;
  config.storage.buffer_capacity = 4;
  config.storage.dir = dir;
  config.checkpoint.every_n_epochs = 1;
  config.checkpoint.path = dir + "/ckpt";
  config.replica = replica;
  LinkPredictionTrainer trainer(&g, config);
  std::ofstream out(out_path);
  for (int e = 0; e < epochs; ++e) {
    const EpochStats s = trainer.TrainEpoch();
    if (s.rv_violations != 0) {
      return 2;
    }
    if (s.comm_bytes == 0 || s.comm_seconds <= 0.0) {
      return 3;
    }
    uint64_t loss_bits = 0;
    std::memcpy(&loss_bits, &s.loss, sizeof(loss_bits));
    out << s.determinism_hash << " " << loss_bits << "\n";
  }
  // Auto-saves must run on rank 0 only: every rank shares checkpoint.path, so
  // a follower saving would race rank 0 on the file (docs/DISTRIBUTED.md).
  const uint64_t saved = trainer.last_checkpoint_stats().bytes_written;
  if (replica.rank == 0 && saved == 0) {
    return 5;
  }
  if (replica.rank != 0 && saved != 0) {
    return 6;
  }
  out.close();
  return out.good() ? 0 : 4;
}

// A non-empty `shared_dir` trains out of core over one features.bin shared by
// every replica.
int TrainNcReplica(const ReplicaOptions& replica, int epochs,
                   const std::string& out_path, const std::string& shared_dir = "") {
  Graph g = PapersMini(0.05);
  TrainingConfig config;
  config.fanouts = {10, 5};
  config.dims = {64, 32, 32};
  config.batch_size = 256;
  config.num_negatives = 0;
  config.pipeline.enabled = false;
  config.weight_lr = 0.05f;
  if (!shared_dir.empty()) {
    config.storage.use_disk = true;
    config.storage.num_physical = 16;
    config.storage.buffer_capacity = 8;
    config.storage.dir = shared_dir;
  }
  config.replica = replica;
  NodeClassificationTrainer trainer(&g, config);
  std::ofstream out(out_path);
  for (int e = 0; e < epochs; ++e) {
    const EpochStats s = trainer.TrainEpoch();
    if (s.rv_violations != 0) {
      return 2;
    }
    if (s.comm_bytes == 0) {
      return 3;
    }
    uint64_t loss_bits = 0;
    std::memcpy(&loss_bits, &s.loss, sizeof(loss_bits));
    out << s.determinism_hash << " " << loss_bits << "\n";
  }
  out.close();
  return out.good() ? 0 : 4;
}

// Forks `world` replicas running `body(replica, out_path)`, waits for all of
// them, and asserts (a) every child exited 0 and (b) every epoch line —
// determinism hash AND loss bits — is identical across ranks and nonzero.
template <typename Body>
void RunReplicasAndExpectAgreement(int world, int epochs, Body body) {
  int port = 0;
  const int listen_fd = BindLocalhost(world, &port);
  ASSERT_GE(listen_fd, 0);
  std::vector<std::string> paths;
  for (int r = 0; r < world; ++r) {
    paths.push_back(TempPath("comm_replica_out"));
  }
  std::vector<pid_t> pids;
  for (int r = 0; r < world; ++r) {
    const pid_t pid = ::fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
      ::_exit(body(MakeReplica(r, world, port, listen_fd), paths[r]));
    }
    pids.push_back(pid);
  }
  ::close(listen_fd);
  for (int r = 0; r < world; ++r) {
    int status = 0;
    ASSERT_EQ(::waitpid(pids[static_cast<size_t>(r)], &status, 0),
              pids[static_cast<size_t>(r)]);
    EXPECT_TRUE(WIFEXITED(status)) << "rank " << r << " died abnormally";
    EXPECT_EQ(WEXITSTATUS(status), 0) << "rank " << r;
  }
  std::vector<std::vector<std::string>> lines(static_cast<size_t>(world));
  for (int r = 0; r < world; ++r) {
    std::ifstream in(paths[static_cast<size_t>(r)]);
    std::string line;
    while (std::getline(in, line)) {
      lines[static_cast<size_t>(r)].push_back(line);
    }
    std::remove(paths[static_cast<size_t>(r)].c_str());
    ASSERT_EQ(lines[static_cast<size_t>(r)].size(),
              static_cast<size_t>(epochs))
        << "rank " << r;
  }
  for (int e = 0; e < epochs; ++e) {
    const std::string& want = lines[0][static_cast<size_t>(e)];
    uint64_t hash = 0;
    std::istringstream(want) >> hash;
    EXPECT_NE(hash, 0u) << "epoch " << e;
    for (int r = 1; r < world; ++r) {
      EXPECT_EQ(lines[static_cast<size_t>(r)][static_cast<size_t>(e)], want)
          << "rank " << r << " diverged at epoch " << e;
    }
  }
}

TEST(ProcessGroupExchange, TwoReplicasAgreeOnEveryEpochHash) {
  RunReplicasAndExpectAgreement(
      2, 2, [](const ReplicaOptions& replica, const std::string& out) {
        return TrainLpReplica(replica, /*use_disk=*/false, 2, out);
      });
}

TEST(ProcessGroupExchange, TwoReplicasAgreeOnDisk) {
  // storage.dir stays empty: each replica keeps a PRIVATE temp embedding file
  // and therefore owns (writes back) every partition — the ownership map only
  // activates over an explicitly shared storage dir.
  RunReplicasAndExpectAgreement(
      2, 2, [](const ReplicaOptions& replica, const std::string& out) {
        return TrainLpReplica(replica, /*use_disk=*/true, 2, out);
      });
}

TEST(ProcessGroupExchange, TwoReplicasAgreeOnASharedStorageDir) {
  // Over an explicitly shared storage dir the ownership map activates: each
  // rank writes back only its own partitions, so replicas genuinely depend on
  // each other's async write-backs being durable before re-reading — the race
  // the per-set drain+rendezvous fence closes. Epoch-hash agreement here means
  // no rank ever read a stale or torn partition image from the shared file.
  const std::string dir = TempPath("comm_shared_dir");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  RunReplicasAndExpectAgreement(
      2, 2, [&dir](const ReplicaOptions& replica, const std::string& out) {
        return TrainLpReplicaSharedDisk(replica, dir, 2, out);
      });
  // Rank 0's auto-save landed in the shared dir (the children already asserted
  // which rank saved).
  struct stat st {};
  EXPECT_EQ(::stat((dir + "/ckpt").c_str(), &st), 0);
  std::remove((dir + "/ckpt").c_str());
  std::remove((dir + "/embeddings.bin").c_str());
  ::rmdir(dir.c_str());
}

TEST(ProcessGroupExchange, TwoNcReplicasAgreeOnASharedStorageDir) {
  // Node classification reads its features out of core from one shared
  // features.bin; rank 0 alone writes the file's initial image.
  const std::string dir = TempPath("comm_shared_nc_dir");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  RunReplicasAndExpectAgreement(
      2, 2, [&dir](const ReplicaOptions& replica, const std::string& out) {
        return TrainNcReplica(replica, 2, out, dir);
      });
  std::remove((dir + "/features.bin").c_str());
  ::rmdir(dir.c_str());
}

// Child body for the shared-storage init fence: both ranks open one shared
// table through OpenPartitionBuffer, each offering its OWN initial image (every
// cell = rank + 1). Rank 1 calls Barrier() once more before opening and rank 0
// once more after, so rank 1 opens only after rank 0 has finished opening,
// whether or not OpenPartitionBuffer fences. Once every rank has opened, both
// must read rank 0's image: a follower that truncated and rewrote the file
// would leave its own 2s behind for both ranks. Exit codes: 0 ok, 7 a rank read
// an image other than rank 0's.
int OpenSharedTable(const ReplicaOptions& replica, const std::string& path) {
  Graph graph = LiveJournalMini(0.01);
  Rng rng(1);
  Partitioning partitioning(graph, 4, PartitionAssignment::kRandom, rng);
  const Tensor init =
      Tensor::Full(graph.num_nodes(), 4, static_cast<float>(replica.rank + 1));
  ProcessGroupExchange exchange(replica);
  if (replica.rank != 0) {
    exchange.Barrier();  // arrive late: rank 0 has opened the table
  }
  std::unique_ptr<PartitionBuffer> buffer =
      OpenPartitionBuffer(&exchange, /*shared=*/true, [&](bool create) {
        return std::make_unique<PartitionBuffer>(
            &partitioning, 4, 2, path, DiskModel(), /*learnable=*/false, &init,
            PartitionIoOptions(), /*write_image=*/create);
      });
  if (replica.rank == 0) {
    exchange.Barrier();
  }
  exchange.Barrier();  // every rank has opened the table
  const Tensor table = buffer->ExportAll();
  for (int64_t i = 0; i < table.size(); ++i) {
    if (table.data()[i] != 1.0f) {
      return 7;
    }
  }
  return 0;
}

TEST(SharedStorageInit, LateFollowerAttachesToRankZeroImage) {
  const std::string path = TempPath("comm_shared_table");
  // No per-epoch lines: the children's exit codes carry the verdict.
  RunReplicasAndExpectAgreement(
      2, 0, [&path](const ReplicaOptions& replica, const std::string&) {
        return OpenSharedTable(replica, path);
      });
  std::remove(path.c_str());
}

TEST(ProcessGroupExchange, FourReplicasAgreeOnEveryEpochHash) {
  RunReplicasAndExpectAgreement(
      4, 2, [](const ReplicaOptions& replica, const std::string& out) {
        return TrainNcReplica(replica, 2, out);
      });
}

TEST(ProcessGroupExchange, DroppedConnectionAbortsBeforeAnyApply) {
  int port = 0;
  const int listen_fd = BindLocalhost(2, &port);
  ASSERT_GE(listen_fd, 0);

  // Rank 1 connects, then dies without ever contributing a step.
  const pid_t quitter = ::fork();
  ASSERT_NE(quitter, -1);
  if (quitter == 0) {
    { ProcessGroupExchange exchange(MakeReplica(1, 2, port, listen_fd)); }
    ::_exit(0);
  }

  // Rank 0 must abort (fail loudly) when the peer's stream ends mid-step —
  // reaching the post-Exchange line would mean a partial reduction survived.
  const pid_t survivor = ::fork();
  ASSERT_NE(survivor, -1);
  if (survivor == 0) {
    ProcessGroupExchange exchange(MakeReplica(0, 2, port, listen_fd));
    GradientStep step;
    step.has_batch = false;
    exchange.Exchange(step);
    ::_exit(0);  // NOT reached on the correct code path
  }
  ::close(listen_fd);

  int status = 0;
  ASSERT_EQ(::waitpid(quitter, &status, 0), quitter);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  ASSERT_EQ(::waitpid(survivor, &status, 0), survivor);
  EXPECT_TRUE(WIFSIGNALED(status))
      << "rank 0 applied a step after its peer died";
  if (WIFSIGNALED(status)) {
    EXPECT_EQ(WTERMSIG(status), SIGABRT);
  }
}

// ---------------------------------------------------------------------------
// Wire-codec hardening: the parsers must round-trip real payloads and must
// abort — "truncated message", before any allocation — on truncated frames and
// on corrupt on-wire element counts. (Death tests fork; they stay in this
// pre-thread region of the file like the fork tests above.)
// ---------------------------------------------------------------------------

TEST(WireCodec, ContributionRoundTrips) {
  Parameter p1(Tensor::Full(2, 3, 1.5f));
  p1.grad = Tensor::Full(2, 3, 0.25f);
  Parameter p2(Tensor::Full(1, 4, -2.0f));
  p2.grad = Tensor::Full(1, 4, -0.5f);
  std::vector<Parameter*> dense = {&p1, &p2};
  std::vector<int64_t> nodes = {7, 3, 11};
  Tensor grads = Tensor::Full(3, 2, 0.125f);

  GradientStep step;
  step.has_batch = true;
  step.loss = 0.75f;
  step.dense = &dense;
  step.sparse_nodes = &nodes;
  step.sparse_grads = &grads;

  const StepContribution got =
      ParseContribution(SerializeContribution(step), /*rank=*/1);
  EXPECT_EQ(got.rank, 1);
  EXPECT_TRUE(got.has_batch);
  EXPECT_EQ(got.loss, 0.75f);
  ASSERT_EQ(got.dense.size(), 2u);
  EXPECT_EQ(got.dense[0], std::vector<float>(6, 0.25f));
  EXPECT_EQ(got.dense[1], std::vector<float>(4, -0.5f));
  EXPECT_EQ(got.sparse_nodes, nodes);
  EXPECT_EQ(got.sparse_dim, 2);
  EXPECT_EQ(got.sparse_grads, std::vector<float>(6, 0.125f));
}

TEST(WireCodec, FoldedStepRoundTrips) {
  FoldedStep folded;
  folded.losses = {0.5f, 1.5f};
  folded.contributed = {1, 0};
  folded.dense = {{1.0f, 2.0f}, {3.0f}};
  folded.sparse_nodes = {4, 9};
  folded.sparse_dim = 3;
  folded.sparse_grads.assign(6, 2.5f);

  const FoldedStep got = ParseFolded(SerializeFolded(folded), /*world=*/2);
  EXPECT_EQ(got.losses, folded.losses);
  EXPECT_EQ(got.contributed, folded.contributed);
  EXPECT_EQ(got.dense, folded.dense);
  EXPECT_EQ(got.sparse_nodes, folded.sparse_nodes);
  EXPECT_EQ(got.sparse_dim, folded.sparse_dim);
  EXPECT_EQ(got.sparse_grads, folded.sparse_grads);
}

TEST(WireCodec, TruncatedPayloadAbortsLoudly) {
  GradientStep step;
  step.has_batch = false;
  step.loss = 0.0f;
  std::vector<uint8_t> payload = SerializeContribution(step);
  payload.pop_back();
  EXPECT_DEATH(ParseContribution(payload, 0), "truncated message");
}

TEST(WireCodec, HugeDenseCountAbortsBeforeAllocating) {
  // A desynced/corrupt frame claiming 2^32-1 dense gradients must die as a
  // truncated message — the count exceeds what the payload could back — not
  // attempt a giant allocation.
  std::vector<uint8_t> payload;
  const uint8_t has_batch = 1;
  const float loss = 0.0f;
  const uint32_t num_dense = 0xFFFFFFFFu;
  payload.insert(payload.end(), reinterpret_cast<const uint8_t*>(&has_batch),
                 reinterpret_cast<const uint8_t*>(&has_batch) + 1);
  payload.insert(payload.end(), reinterpret_cast<const uint8_t*>(&loss),
                 reinterpret_cast<const uint8_t*>(&loss) + sizeof(loss));
  payload.insert(payload.end(), reinterpret_cast<const uint8_t*>(&num_dense),
                 reinterpret_cast<const uint8_t*>(&num_dense) + sizeof(num_dense));
  EXPECT_DEATH(ParseContribution(payload, 0), "truncated message");
}

TEST(WireCodec, HugeSparseRowCountAbortsBeforeAllocating) {
  std::vector<uint8_t> payload;
  const uint8_t has_batch = 1;
  const float loss = 0.0f;
  const uint32_t num_dense = 0;
  const uint64_t rows = 0x7FFFFFFFFFFFFFFFull;
  const int64_t dim = 16;
  const auto append = [&payload](const void* p, size_t n) {
    const uint8_t* b = static_cast<const uint8_t*>(p);
    payload.insert(payload.end(), b, b + n);
  };
  append(&has_batch, sizeof(has_batch));
  append(&loss, sizeof(loss));
  append(&num_dense, sizeof(num_dense));
  append(&rows, sizeof(rows));
  append(&dim, sizeof(dim));
  EXPECT_DEATH(ParseContribution(payload, 0), "truncated message");
}

// ---------------------------------------------------------------------------
// Golden identity: a world=1 run routed through the seam must reproduce the
// exact constants trainer_test.cc pins for the pre-seam code path.
// ---------------------------------------------------------------------------

TrainingConfig GoldenLpConfig(bool use_disk) {
  TrainingConfig config;
  config.fanouts = {5};
  config.dims = {16, 16};
  config.batch_size = 512;
  config.num_negatives = 32;
  config.pipeline.enabled = true;
  config.pipeline.workers = 2;
  if (use_disk) {
    config.storage.use_disk = true;
    config.storage.num_physical = 8;
    config.storage.num_logical = 4;
    config.storage.buffer_capacity = 4;
  }
  // Through the seam explicitly: world_size 1 selects LocalExchange.
  config.replica.rank = 0;
  config.replica.world_size = 1;
  return config;
}

TrainingConfig GoldenNcConfig(bool use_disk) {
  TrainingConfig config;
  config.fanouts = {10, 5};
  config.dims = {64, 32, 32};
  config.batch_size = 256;
  config.num_negatives = 0;
  config.pipeline.enabled = true;
  config.pipeline.workers = 2;
  config.weight_lr = 0.05f;
  if (use_disk) {
    config.storage.use_disk = true;
    config.storage.num_physical = 16;
    config.storage.buffer_capacity = 8;
  }
  config.replica.rank = 0;
  config.replica.world_size = 1;
  return config;
}

void ExpectLpGolden(bool use_disk, const std::vector<double>& want_losses,
                    double want_mrr) {
  Graph g = Fb15k237Like(0.03);
  LinkPredictionTrainer trainer(&g, GoldenLpConfig(use_disk));
  for (size_t e = 0; e < want_losses.size(); ++e) {
    const EpochStats s = trainer.TrainEpoch();
    EXPECT_EQ(s.loss, want_losses[e]) << "epoch " << e;
    EXPECT_NE(s.determinism_hash, 0u);
    // LocalExchange moves nothing: no wire bytes, no comm stall.
    EXPECT_EQ(s.comm_bytes, 0u);
    EXPECT_EQ(s.comm_stall_seconds, 0.0);
    EXPECT_EQ(s.num_global_batches, s.num_batches);
  }
  EXPECT_EQ(trainer.EvaluateMrr(50, 100), want_mrr);
}

void ExpectNcGolden(bool use_disk, const std::vector<double>& want_losses,
                    double want_acc) {
  Graph g = PapersMini(0.05);
  NodeClassificationTrainer trainer(&g, GoldenNcConfig(use_disk));
  for (size_t e = 0; e < want_losses.size(); ++e) {
    const EpochStats s = trainer.TrainEpoch();
    EXPECT_EQ(s.loss, want_losses[e]) << "epoch " << e;
    EXPECT_NE(s.determinism_hash, 0u);
    EXPECT_EQ(s.comm_bytes, 0u);
    EXPECT_EQ(s.num_global_batches, s.num_batches);
  }
  EXPECT_EQ(trainer.EvaluateTestAccuracy(), want_acc);
}

TEST(LocalExchangeGolden, LinkPredictionInMemory) {
  ExpectLpGolden(false, {2.9370360056559246, 2.0135522921880087},
                 0.48917109523447394);
}

TEST(LocalExchangeGolden, LinkPredictionDisk) {
  ExpectLpGolden(true, {3.0713760495185851, 2.3424148057636462},
                 0.4393313931734697);
}

TEST(LocalExchangeGolden, NodeClassificationInMemory) {
  ExpectNcGolden(false, {8.0975475311279297, 3.2635064125061035},
                 0.34666666666666668);
}

TEST(LocalExchangeGolden, NodeClassificationDisk) {
  ExpectNcGolden(true, {8.3907327651977539, 3.291311502456665},
                 0.35333333333333333);
}

// ---------------------------------------------------------------------------
// OrderedFold
// ---------------------------------------------------------------------------

StepContribution MakeContribution(int32_t rank, float loss,
                                  std::vector<float> dense,
                                  std::vector<int64_t> nodes,
                                  std::vector<float> grads, int64_t dim) {
  StepContribution c;
  c.rank = rank;
  c.has_batch = true;
  c.loss = loss;
  c.dense.push_back(std::move(dense));
  c.sparse_nodes = std::move(nodes);
  c.sparse_grads = std::move(grads);
  c.sparse_dim = dim;
  return c;
}

TEST(OrderedFold, DeterministicAcrossArrivalPermutations) {
  // Three ranks; rank 2 is batchless. Node 7 is touched by ranks 0 and 1.
  std::vector<StepContribution> base;
  base.push_back(
      MakeContribution(0, 1.0f, {1.0f, 2.0f}, {5, 7}, {10, 11, 20, 21}, 2));
  base.push_back(
      MakeContribution(1, 2.0f, {0.5f, 0.25f}, {7, 9}, {1, 2, 3, 4}, 2));
  StepContribution idle;
  idle.rank = 2;
  idle.has_batch = false;
  idle.loss = 0.0f;
  base.push_back(idle);

  const uint64_t before =
      RvRuntime::Global().violations(RvInvariant::kCommFoldOrder);
  RvFoldOrderMonitor monitor(RvInvariant::kCommFoldOrder);
  const FoldedStep want = OrderedFold(base, 3, &monitor);

  // The reduction is a function of the SET of contributions, not their
  // arrival order — every permutation must produce identical bytes, with no
  // fold-order violation (the fold walks ranks ascending internally).
  const std::vector<std::vector<size_t>> orders = {
      {2, 1, 0}, {1, 0, 2}, {0, 2, 1}, {2, 0, 1}, {1, 2, 0}};
  for (const auto& order : orders) {
    std::vector<StepContribution> permuted;
    for (size_t i : order) {
      permuted.push_back(base[i]);
    }
    const FoldedStep got = OrderedFold(permuted, 3, &monitor);
    EXPECT_EQ(got.losses, want.losses);
    EXPECT_EQ(got.contributed, want.contributed);
    EXPECT_EQ(got.dense, want.dense);
    EXPECT_EQ(got.sparse_nodes, want.sparse_nodes);
    EXPECT_EQ(got.sparse_grads, want.sparse_grads);
    EXPECT_EQ(got.sparse_dim, want.sparse_dim);
  }
  EXPECT_EQ(RvRuntime::Global().violations(RvInvariant::kCommFoldOrder), before);

  // Spot-check the fold itself.
  EXPECT_EQ(want.losses, (std::vector<float>{1.0f, 2.0f, 0.0f}));
  EXPECT_EQ(want.contributed, (std::vector<uint8_t>{1, 1, 0}));
  ASSERT_EQ(want.dense.size(), 1u);
  EXPECT_EQ(want.dense[0], (std::vector<float>{1.5f, 2.25f}));
  // First-touch node order of the ascending fold; node 7's row is the
  // rank-order sum.
  EXPECT_EQ(want.sparse_nodes, (std::vector<int64_t>{5, 7, 9}));
  EXPECT_EQ(want.sparse_grads,
            (std::vector<float>{10, 11, 21, 23, 3, 4}));
}

TEST(RvFoldOrderMonitor, FlagsNonAscendingFold) {
  RvRuntime& rt = RvRuntime::Global();
  const uint64_t before = rt.violations(RvInvariant::kCommFoldOrder);
  RvFoldOrderMonitor monitor(RvInvariant::kCommFoldOrder);
  monitor.BeginReduction();
  monitor.ObserveFold(0);
  monitor.ObserveFold(2);
  EXPECT_EQ(rt.violations(RvInvariant::kCommFoldOrder), before);
  monitor.ObserveFold(1);  // out of order
  EXPECT_EQ(rt.violations(RvInvariant::kCommFoldOrder), before + 1);
  // A new reduction resets the order tracking.
  monitor.BeginReduction();
  monitor.ObserveFold(0);
  EXPECT_EQ(rt.violations(RvInvariant::kCommFoldOrder), before + 1);
}

// ---------------------------------------------------------------------------
// PartitionBuffer ownership
// ---------------------------------------------------------------------------

TEST(PartitionBufferOwnership, SkipsUnownedWriteback) {
  Graph graph = LiveJournalMini(0.01);
  Rng rng(1);
  Partitioning partitioning(graph, 4, PartitionAssignment::kRandom, rng);
  Rng rng2(2);
  Tensor init = Tensor::Uniform(graph.num_nodes(), 4, 1.0f, rng2);
  const std::string path = TempPath("comm_ownership");
  PartitionBuffer buffer(&partitioning, 4, 2, path, DiskModel(),
                         /*learnable=*/true, &init);
  std::vector<uint8_t> owned(4, 0);
  owned[0] = 1;  // this replica owns partition 0 only
  buffer.SetPartitionOwnership(owned);

  buffer.SetResident({0, 1});
  const int64_t node_owned = partitioning.NodesIn(0).front();
  const int64_t node_unowned = partitioning.NodesIn(1).front();
  const float original = init(node_unowned, 0);
  buffer.ValueRow(node_owned)[0] = 123.5f;
  buffer.MarkDirty(node_owned);
  buffer.ValueRow(node_unowned)[0] = 321.5f;
  buffer.MarkDirty(node_unowned);
  buffer.FlushAll();

  // Re-load both partitions from disk: the owned partition's write persisted,
  // the unowned dirty eviction skipped its write-back (on SHARED storage the
  // owning replica's identical write is the one that lands).
  buffer.SetResident({0, 1});
  EXPECT_EQ(buffer.ValueRow(node_owned)[0], 123.5f);
  EXPECT_EQ(buffer.ValueRow(node_unowned)[0], original);
  ::remove(path.c_str());
}

TEST(PartitionBufferOwnership, EmptyMapOwnsEverything) {
  Graph graph = LiveJournalMini(0.01);
  Rng rng(1);
  Partitioning partitioning(graph, 4, PartitionAssignment::kRandom, rng);
  Rng rng2(2);
  Tensor init = Tensor::Uniform(graph.num_nodes(), 4, 1.0f, rng2);
  const std::string path = TempPath("comm_own_default");
  PartitionBuffer buffer(&partitioning, 4, 2, path, DiskModel(),
                         /*learnable=*/true, &init);
  for (int32_t p = 0; p < 4; ++p) {
    EXPECT_TRUE(buffer.OwnsPartition(p));
  }
  buffer.SetResident({2});
  const int64_t node = partitioning.NodesIn(2).front();
  buffer.ValueRow(node)[0] = 77.0f;
  buffer.MarkDirty(node);
  buffer.FlushAll();
  buffer.SetResident({2});
  EXPECT_EQ(buffer.ValueRow(node)[0], 77.0f);
  ::remove(path.c_str());
}


}  // namespace
}  // namespace mariusgnn
