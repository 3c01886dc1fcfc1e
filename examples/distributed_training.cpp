// Simulated multi-GPU data-parallel training (Sec. 2.2): N in-process
// replicas, gradient allreduce every step, with ring-allreduce cost
// accounting — the substrate behind the paper's communication results.
//
//   $ ./distributed_training [--gpus 4] [--epochs 10]
//
// Trains a small ResNet across the replica cluster and prints per-epoch
// loss, accuracy, and the allreduce volume/time a real 4-GPU ring would
// spend, demonstrating that replicas stay bit-identical.
#include <iostream>

#include "dist/elastic.h"
#include "models/builders.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) {
  pt::CliFlags flags;
  flags.define("gpus", "4", "number of simulated GPUs");
  flags.define("epochs", "10", "training epochs");
  flags.define("batch", "64", "global mini-batch size");
  flags.parse(argc, argv);
  if (flags.help_requested()) {
    std::cout << flags.usage("distributed_training");
    return 0;
  }
  const int gpus = static_cast<int>(flags.get_int("gpus"));
  const std::int64_t epochs = flags.get_int("epochs");
  const std::int64_t batch = flags.get_int("batch");

  pt::data::SyntheticImageDataset dataset(
      pt::data::SyntheticSpec::cifar10_like());
  pt::models::ModelConfig model_cfg;
  model_cfg.image_h = dataset.spec().height;
  model_cfg.image_w = dataset.spec().width;
  model_cfg.classes = dataset.spec().classes;
  model_cfg.width_mult = 0.25f;

  // Identical initialization on every replica (same build seed) is the
  // data-parallel contract; the allreduce keeps them in lock-step after.
  std::vector<pt::graph::Network> replicas;
  for (int i = 0; i < gpus; ++i) {
    replicas.push_back(pt::models::build_resnet_basic(20, model_cfg));
  }
  pt::cost::CommSpec comm;
  comm.gpus = gpus;
  pt::dist::ElasticCluster cluster(std::move(replicas), comm);

  pt::exec::ExecContext ctx(1);
  pt::optim::SGD opt(0.1f, 0.9f, 1e-4f);
  pt::data::DataLoader loader(dataset, /*seed=*/3);

  pt::Table t({"epoch", "loss", "train acc", "allreduce MB/GPU", "comm ms (modeled)"});
  for (std::int64_t e = 0; e < epochs; ++e) {
    loader.begin_epoch();
    double loss = 0, comm_bytes = 0, comm_time = 0;
    std::int64_t correct = 0, samples = 0, iters = 0;
    while (loader.has_next()) {
      pt::data::Batch b = loader.next(batch);
      if (b.size() < gpus) break;  // final ragged batch smaller than cluster
      const auto r = cluster.step(ctx, b, opt);
      loss += r.loss * double(b.size());
      correct += r.correct;
      samples += b.size();
      comm_bytes += r.comm_bytes_per_gpu;
      comm_time += r.comm_time_modeled;
      ++iters;
    }
    t.add_row({std::to_string(e), pt::fmt(loss / double(samples), 3),
               pt::fmt(double(correct) / double(samples), 3),
               pt::fmt(comm_bytes / 1e6, 2), pt::fmt(comm_time * 1e3, 2)});
  }
  t.print();

  // Verify the data-parallel contract held.
  auto p0 = cluster.replica(0).params();
  bool identical = true;
  for (int r = 1; r < cluster.size() && identical; ++r) {
    auto pr = cluster.replica(r).params();
    for (std::size_t i = 0; i < p0.size() && identical; ++i) {
      for (std::int64_t q = 0; q < p0[i]->value.numel(); ++q) {
        if (p0[i]->value.data()[q] != pr[i]->value.data()[q]) {
          identical = false;
          break;
        }
      }
    }
  }
  std::cout << "\nreplicas bit-identical after training: "
            << (identical ? "yes" : "NO (bug!)") << "\n";
  return identical ? 0 : 1;
}
