#include "src/enclave/notary.h"

#include "src/os/os.h"

namespace komodo::enclave {

NotaryCore::NotaryCore(uint64_t key_seed, const NotaryCosts& costs)
    : drbg_(key_seed), costs_(costs) {}

uint64_t NotaryCore::Init() {
  if (key_ready_) {
    return 0;
  }
  key_ = crypto::RsaGenerateKey(&drbg_, 1024);
  key_ready_ = true;
  counter_ = 0;
  return costs_.rsa_keygen_cycles;
}

std::vector<uint8_t> NotaryCore::Notarize(const uint8_t* doc, size_t len, uint64_t* cycles_out) {
  // message = document || counter (little-endian), as the Ironclad notary
  // hashes the document with the current counter value before signing.
  // Streamed through one Sha256, so the document is never copied.
  crypto::Sha256 sha;
  sha.Update(doc, len);
  sha.UpdateWordLe(counter_);
  std::vector<uint8_t> sig = crypto::RsaSignSha256Digest(key_, sha.Finalize());
  ++counter_;
  *cycles_out = costs_.sha_cycles_per_byte * (len + 4) + costs_.rsa_sign_cycles;
  return sig;
}

UserAction NotaryProgram::Run(UserContext& ctx) {
  const word cmd = ctx.Reg(0);
  switch (cmd) {
    case kNotaryCmdInit: {
      ctx.ChargeCycles(core_.Init());
      // Publish the modulus to the shared page following the document region.
      const std::vector<uint8_t> n_bytes = core_.public_key().n.ToBytesBe(128);
      const vaddr out_va = os::kEnclaveSharedVa + kNotaryMaxDocBytes;
      if (!ctx.WriteBytes(out_va, n_bytes.data(), n_bytes.size())) {
        return UserAction::Fault();
      }
      return UserAction::Exit(0);
    }
    case kNotaryCmdNotarize: {
      const word len = ctx.Reg(1);
      if (len == 0 || len > kNotaryMaxDocBytes) {
        return UserAction::Exit(0);  // 0 = rejected (counters start at 1 below)
      }
      // Copy the document in through the enclave page table (the charged
      // loads model the enclave's copy-in of untrusted input).
      std::vector<uint8_t> doc(len);
      if (!ctx.ReadBytes(os::kEnclaveSharedVa, doc.data(), len)) {
        return UserAction::Fault();
      }
      uint64_t cycles = 0;
      const std::vector<uint8_t> sig = core_.Notarize(doc.data(), doc.size(), &cycles);
      ctx.ChargeCycles(cycles);
      const vaddr out_va = os::kEnclaveSharedVa + kNotaryMaxDocBytes + 1024;
      if (!ctx.WriteBytes(out_va, sig.data(), sig.size())) {
        return UserAction::Fault();
      }
      return UserAction::Exit(core_.counter());  // counter after increment >= 1
    }
    default:
      return UserAction::Exit(0);
  }
}

std::vector<uint8_t> NotaryNative::Notarize(const std::vector<uint8_t>& doc) {
  // A native process reads the document from its own memory: model the same
  // copy-in traffic with plain loads.
  cycles_ += doc.size() / 4 * arm::kCortexA7Costs.load;
  uint64_t work = 0;
  std::vector<uint8_t> sig = core_.Notarize(doc.data(), doc.size(), &work);
  cycles_ += work;
  return sig;
}

}  // namespace komodo::enclave
