#include "harness.h"

#include <sys/resource.h>

#include <cstdio>

#include "core/journal.h"
#include "crypto/sha1.h"
#include "service/wire.h"

namespace perfbench {

namespace {

std::string Sha1Hex(const std::string& bytes) {
  const std::vector<uint8_t> digest = privmark::Sha1::Hash(bytes);
  std::string hex;
  char buf[3];
  for (uint8_t b : digest) {
    std::snprintf(buf, sizeof(buf), "%02x", b);
    hex += buf;
  }
  return hex;
}

}  // namespace

std::string OutputDigest(OpKind kind, const OpResult& result) {
  privmark::WireResponse response;
  privmark::WireTableEncoder tables;
  switch (kind) {
    case OpKind::kIngest:
    case OpKind::kFlush:
      // A request that emitted nothing carries no table to compare: the
      // session leaves it schema-less, the wire decodes it typed.
      if (result.emitted.num_rows() == 0) return "no rows";
      return Sha1Hex(privmark::SessionJournal::EncodeBatch(result.emitted));
    case OpKind::kDetect:
      response.kind = privmark::WireFrameType::kDetect;
      response.reports = result.reports;
      break;
    case OpKind::kFingerprint:
      response.kind = privmark::WireFrameType::kFingerprint;
      response.fingerprints = result.fingerprints;
      break;
  }
  return Sha1Hex(privmark::EncodeWireResponse(response, &tables));
}

double PeakRssMb() {
  struct rusage usage {};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
