// ndss_corpusgen: generates a synthetic tokenized corpus file for
// experiments.
//
//   ndss_corpusgen --out=/data/corpus.crp --texts=100000 --vocab=32000
//                  --plant-rate=0.2 --seed=42

#include <cstdio>

#include "corpusgen/synthetic.h"
#include "text/corpus_file.h"
#include "tool_flags.h"

int main(int argc, char** argv) {
  ndss::tools::Flags flags(argc, argv);
  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    ndss::tools::Die(
        "usage: ndss_corpusgen --out=FILE [--texts=N] [--vocab=V] "
        "[--min-len=L] [--max-len=L] [--zipf=S] [--plant-rate=P] "
        "[--plant-noise=P] [--seed=S]");
  }
  ndss::SyntheticCorpusOptions options;
  options.num_texts = static_cast<uint32_t>(flags.GetInt("texts", 10000));
  options.vocab_size = static_cast<uint32_t>(flags.GetInt("vocab", 32000));
  options.min_text_length =
      static_cast<uint32_t>(flags.GetInt("min-len", 100));
  options.max_text_length =
      static_cast<uint32_t>(flags.GetInt("max-len", 1000));
  options.zipf_exponent = flags.GetDouble("zipf", 1.0);
  options.plant_rate = flags.GetDouble("plant-rate", 0.2);
  options.plant_noise = flags.GetDouble("plant-noise", 0.05);
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));

  ndss::SyntheticCorpus sc = ndss::GenerateSyntheticCorpus(options);
  ndss::Status status = ndss::WriteCorpusFile(out, sc.corpus);
  if (!status.ok()) ndss::tools::Die(status.ToString());
  std::printf("wrote %s: %zu texts, %llu tokens, %zu planted near-dups\n",
              out.c_str(), sc.corpus.num_texts(),
              static_cast<unsigned long long>(sc.corpus.total_tokens()),
              sc.plants.size());
  return 0;
}
