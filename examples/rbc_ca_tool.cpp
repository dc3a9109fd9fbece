// rbc_ca_tool — a small operational CLI for a SALTED certificate authority.
//
// Demonstrates the persistence + protocol workflow a deployment would
// script:
//
//   rbc_ca_tool enroll <db-file> <device-id> [num-addresses]
//       Manufacture the (simulated) device, calibrate TAPKI masks, and
//       append the encrypted record to the database file.
//
//   rbc_ca_tool authenticate <db-file> <device-id> [injected-d] [backend]
//       Load the database, stand up a CA on the chosen backend and run one
//       full authentication session for the device.
//
//   rbc_ca_tool inspect <db-file>
//       Summarize the database (device count, record sizes, mask weights).
//
// The device's physical identity is derived deterministically from its id,
// so "the same device" is available to both subcommands without extra
// state — the stand-in for plugging in the physical PUF.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "rbc/protocol.hpp"

namespace {

using namespace rbc;

crypto::Aes128::Key master_key() {
  // A deployment would load this from an HSM; the tool derives it from a
  // fixed demo passphrase via SHA3.
  const char* passphrase = "rbc-ca-tool demo master key";
  const auto digest = hash::sha3_256(
      ByteSpan{reinterpret_cast<const u8*>(passphrase), strlen(passphrase)});
  crypto::Aes128::Key key{};
  std::copy_n(digest.bytes.begin(), key.size(), key.begin());
  return key;
}

puf::SramPufModel make_device(u64 device_id, u32 addresses) {
  puf::SramPufModel::Params params;
  params.num_addresses = addresses;
  return puf::SramPufModel(params, device_id ^ 0xCA11AB1EULL);
}

EnrollmentDatabase open_or_create(const std::string& path) {
  if (std::filesystem::exists(path)) {
    return EnrollmentDatabase::load_from_file(path, master_key());
  }
  return EnrollmentDatabase(master_key());
}

int cmd_enroll(const std::string& db_path, u64 device_id, u32 addresses) {
  EnrollmentDatabase db = open_or_create(db_path);
  if (db.contains(device_id)) {
    std::fprintf(stderr, "device %llu already enrolled\n",
                 static_cast<unsigned long long>(device_id));
    return 1;
  }
  const auto device = make_device(device_id, addresses);
  Xoshiro256 rng(device_id ^ 0xE201);
  db.enroll(device_id, device, /*calibration_reads=*/120,
            /*max_flip_rate=*/0.05, rng);
  db.save(db_path);
  std::printf("enrolled device %llu (%u addresses); database now holds %zu "
              "records at %s\n",
              static_cast<unsigned long long>(device_id), addresses, db.size(),
              db_path.c_str());
  return 0;
}

int cmd_authenticate(const std::string& db_path, u64 device_id, int injected,
                     const std::string& backend) {
  if (!std::filesystem::exists(db_path)) {
    std::fprintf(stderr, "no database at %s (enroll first)\n", db_path.c_str());
    return 1;
  }
  EnrollmentDatabase db =
      EnrollmentDatabase::load_from_file(db_path, master_key());
  if (!db.contains(device_id)) {
    std::fprintf(stderr, "device %llu is not enrolled\n",
                 static_cast<unsigned long long>(device_id));
    return 1;
  }
  const u32 addresses = db.num_addresses(device_id);
  const auto device = make_device(device_id, addresses);

  RegistrationAuthority ra;
  CaConfig cfg;
  cfg.max_distance = 3;
  CertificateAuthority ca(cfg, std::move(db), make_backend(backend), &ra);

  ClientConfig ccfg;
  ccfg.device_id = device_id;
  ccfg.injected_distance = injected;
  Client client(ccfg, &device,
                device_id ^ static_cast<u64>(std::time(nullptr)));

  const SessionReport session = run_authentication(client, ca, ra);
  std::printf("device %llu via %s: %s (found d=%d, %llu seeds, host %.3f s, "
              "%s model %.3e s, total %.2f s)\n",
              static_cast<unsigned long long>(device_id), backend.c_str(),
              session.result.authenticated ? "AUTHENTICATED" : "REJECTED",
              session.result.found_distance,
              static_cast<unsigned long long>(
                  session.engine.result.seeds_hashed),
              session.result.search_seconds,
              session.engine.device_name.c_str(),
              session.engine.modeled_device_seconds, session.total_time_s);
  if (session.result.authenticated) {
    std::printf("session key: %zu bytes, registered with RA (rotation %llu)\n",
                session.registered_public_key.size(),
                static_cast<unsigned long long>(
                    ra.entry(device_id)->rotation));
  }
  return session.result.authenticated ? 0 : 2;
}

int cmd_inspect(const std::string& db_path) {
  if (!std::filesystem::exists(db_path)) {
    std::fprintf(stderr, "no database at %s\n", db_path.c_str());
    return 1;
  }
  const EnrollmentDatabase db =
      EnrollmentDatabase::load_from_file(db_path, master_key());
  std::printf("database %s: %zu device(s)\n", db_path.c_str(), db.size());
  // Device ids are not enumerable through the public API by design (the
  // at-rest file leaks only framing); probe the demo id range.
  for (u64 id = 0; id < 64; ++id) {
    if (!db.contains(id)) continue;
    const auto record = db.load(id);
    int masked = 0;
    for (const auto& mask : record.masks) masked += mask.num_unstable();
    std::printf("  device %3llu: %u addresses, ciphertext %zu bytes, "
                "%d unstable cells masked in total\n",
                static_cast<unsigned long long>(id),
                record.image.num_addresses(), db.ciphertext(id).size(),
                masked);
  }
  return 0;
}

void usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  rbc_ca_tool enroll <db-file> <device-id> [addresses=8]\n"
               "  rbc_ca_tool authenticate <db-file> <device-id> "
               "[injected-d=2] [backend=gpu]\n"
               "  rbc_ca_tool inspect <db-file>\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    // No arguments: self-demonstration on a temp database.
    const std::string path =
        (std::filesystem::temp_directory_path() / "rbc_ca_demo.db").string();
    std::remove(path.c_str());
    std::printf("(no arguments — running the self-demo on %s)\n\n",
                path.c_str());
    if (cmd_enroll(path, 1, 8) != 0) return 1;
    if (cmd_enroll(path, 2, 4) != 0) return 1;
    if (cmd_inspect(path) != 0) return 1;
    if (cmd_authenticate(path, 1, 2, "gpu") != 0) return 1;
    if (cmd_authenticate(path, 2, 1, "apu") != 0) return 1;
    std::remove(path.c_str());
    return 0;
  }

  const std::string cmd = argv[1];
  if (cmd == "enroll" && argc >= 4) {
    const u32 addresses =
        argc >= 5 ? static_cast<u32>(std::strtoul(argv[4], nullptr, 10)) : 8;
    return cmd_enroll(argv[2], std::strtoull(argv[3], nullptr, 10), addresses);
  }
  if (cmd == "authenticate" && argc >= 4) {
    const int injected = argc >= 5 ? std::atoi(argv[4]) : 2;
    const std::string backend = argc >= 6 ? argv[5] : "gpu";
    return cmd_authenticate(argv[2], std::strtoull(argv[3], nullptr, 10),
                            injected, backend);
  }
  if (cmd == "inspect" && argc >= 3) return cmd_inspect(argv[2]);
  usage();
  return 1;
}
