#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace ndss_bench {

Zipf::Zipf(uint32_t n, double s) : cdf_(n) {
  double total = 0;
  for (uint32_t rank = 0; rank < n; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank + 1), s);
    cdf_[rank] = total;
  }
  for (double& c : cdf_) c /= total;
}

uint32_t Zipf::Sample(Rng& rng) const {
  const double u = rng.Unit();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<uint32_t>(
      std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1));
}

namespace {

void AppendNoisyCopy(std::span<const Token> source, double noise,
                     const Zipf& vocab, Rng& rng, std::vector<Token>* out) {
  for (Token token : source) {
    out->push_back(rng.Unit() < noise ? vocab.Sample(rng) : token);
  }
}

}  // namespace

ndss::Corpus GenerateCorpus(const CorpusShape& shape, Rng& rng,
                            const ndss::Corpus* donors) {
  const Zipf vocab(shape.vocab, shape.zipf_s);
  ndss::Corpus corpus;
  std::vector<Token> text;
  for (uint32_t i = 0; i < shape.texts; ++i) {
    const uint32_t length =
        static_cast<uint32_t>(rng.Between(shape.min_length, shape.max_length));
    text.clear();
    const ndss::Corpus& pool = donors != nullptr ? *donors : corpus;
    const bool plant = pool.num_texts() > 0 && rng.Unit() < shape.plant_rate;
    uint32_t plant_at = length;
    std::span<const Token> span;
    if (plant) {
      const std::span<const Token> donor =
          pool.text(rng.Uniform(pool.num_texts()));
      const uint32_t span_length = static_cast<uint32_t>(std::min<uint64_t>(
          {rng.Between(shape.min_plant, shape.max_plant), donor.size(),
           length}));
      const uint64_t from = rng.Uniform(donor.size() - span_length + 1);
      span = donor.subspan(from, span_length);
      plant_at = static_cast<uint32_t>(rng.Uniform(length - span_length + 1));
    }
    while (text.size() < length) {
      if (text.size() == plant_at) {
        AppendNoisyCopy(span, shape.noise, vocab, rng, &text);
        continue;
      }
      text.push_back(vocab.Sample(rng));
    }
    corpus.AddText(text);
  }
  return corpus;
}

Probe MakeProbe(const ndss::Corpus& corpus, uint32_t length, double noise,
                const Zipf& vocab, Rng& rng) {
  Probe probe;
  std::span<const Token> text;
  do {
    probe.text = static_cast<ndss::TextId>(rng.Uniform(corpus.num_texts()));
    text = corpus.text(probe.text);
  } while (text.size() < length);
  probe.begin = static_cast<uint32_t>(rng.Uniform(text.size() - length + 1));
  AppendNoisyCopy(text.subspan(probe.begin, length), noise, vocab, rng,
                  &probe.tokens);
  return probe;
}

std::vector<Token> MakeModelOutput(const ndss::Corpus& corpus,
                                   uint32_t length, double copied_share,
                                   double noise, const Zipf& vocab, Rng& rng) {
  // Alternate fresh and copied runs of 64..160 tokens; a run is copied with
  // probability `copied_share`, so about that share of tokens is copied.
  std::vector<Token> output;
  while (output.size() < length) {
    const uint32_t run = static_cast<uint32_t>(std::min<uint64_t>(
        rng.Between(64, 160), length - output.size()));
    if (rng.Unit() < copied_share) {
      const Probe copy = MakeProbe(corpus, run, noise, vocab, rng);
      output.insert(output.end(), copy.tokens.begin(), copy.tokens.end());
    } else {
      for (uint32_t i = 0; i < run; ++i) output.push_back(vocab.Sample(rng));
    }
  }
  return output;
}

void Digest::Add(std::span<const Token> tokens) {
  // FNV-1a over the length and every token.
  auto mix = [this](uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      state_ ^= (value >> (8 * byte)) & 0xff;
      state_ *= 0x100000001b3ULL;
    }
  };
  mix(tokens.size());
  for (Token token : tokens) mix(token);
}

void Digest::Add(const ndss::Corpus& corpus) {
  for (size_t i = 0; i < corpus.num_texts(); ++i) Add(corpus.text(i));
}

std::string Digest::Hex() const {
  char buffer[19];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(state_));
  return buffer;
}

}  // namespace ndss_bench
