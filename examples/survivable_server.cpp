// survivable_server: the security-oriented deployment — the survey's
// malicious-fault techniques layered around one vulnerable network server,
// now served over a REAL socket through the net::Gateway front door.
//
//   * the request handler is the memory-unsafe VM server (unchecked copy
//     into a fixed buffer, function-pointer dispatch);
//   * it runs as 3 diversified process replicas (partitioned address
//     spaces + tagged instructions) behind a divergence monitor;
//   * the server's credential cell lives in a 3-variant data store, so
//     even a *successful* smash of one layout cannot be read back;
//   * the accounting heap is guarded by a Fetzer-style healer that bounds
//     checks every write;
//   * everything above sits behind the epoll event loop: requests are
//     parsed on the loop thread, dispatched into the lock-free engine via
//     submit_batch, and completions come back over the wakeup-fd queue.
//
// An attacker (the in-process client below, over a keep-alive loopback
// connection) mixes benign traffic with absolute-address hijacks, code
// injection, and heap smashes — every attack travels through the same
// HTTP front door a real one would.
//
// Live telemetry (opt-in): REDUNDANCY_OBS_HTTP_PORT=9137 starts a second,
// 1-loop ops gateway — `curl localhost:9137/metrics` scrapes Prometheus
// text, `/healthz` reports per-technique health from recent adjudication
// verdicts, `/traces?n=10` tails recent request spans. Its gateway.*
// series carry server="ops", apart from the serving gateway's. The serving
// gateway also serves `/metrics` and `/healthz` in-process on its own port.
// Set REDUNDANCY_OBS_HTTP_LINGER_MS to keep the endpoints up after the
// workload finishes.
#include <iostream>
#include <mutex>
#include <string>

#include "core/live_telemetry.hpp"
#include "net/gateway.hpp"
#include "net/loopback_client.hpp"
#include "techniques/nvariant_data.hpp"
#include "techniques/process_replicas.hpp"
#include "techniques/wrappers.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "vm/attacks.hpp"

using namespace redundancy;

namespace {

/// All the redundancy-protected server state, shared by the route handlers.
/// Handlers run on pool workers, so one mutex serializes the techniques
/// (each pattern instance is owner-thread by contract); the gateway's
/// event loop and engine dispatch stay fully concurrent around it.
struct Survivable {
  std::mutex m;
  techniques::ProcessReplicas replicas;
  std::size_t known_base;
  techniques::NVariantStore credentials;
  env::HeapModel heap{1 << 16};
  techniques::HeapHealer healer{heap};
  std::vector<env::BlockId> ledger;
  const std::vector<std::byte> oversized =
      std::vector<std::byte>(256, std::byte{0x41});

  explicit Survivable(std::uint64_t seed)
      : replicas{vm::vulnerable_server(),
                 {.replicas = 3},
                 [](vm::Vm& machine, std::size_t base) {
                   (void)machine.poke(base + vm::ServerLayout::secret,
                                      vm::kSecretValue);
                 }},
        known_base{replicas.partitions()[0].base},
        credentials{8, 3, seed} {
    (void)credentials.write(0, 0x5ec7e7);  // the API token cell
    for (int i = 0; i < 16; ++i) ledger.push_back(healer.malloc(64).value());
  }
};

std::uint64_t param(const net::Gateway::Request& request, const char* key) {
  return static_cast<std::uint64_t>(
      net::http::query_param(request.query, key).value_or(0));
}

net::http::Response text(std::string body) {
  return {200, "text/plain; charset=utf-8", std::move(body)};
}

void install_survivable_routes(net::Gateway& gateway, Survivable& s) {
  // Benign request: replicated VM serve + an in-bounds ledger write.
  gateway.add_route("/vm", [&s](const net::Gateway::Request& request) {
    const int a = static_cast<int>(param(request, "a"));
    const int b = static_cast<int>(param(request, "b"));
    const std::size_t i = param(request, "i") % 16;
    std::lock_guard lock{s.m};
    s.replicas.reset();
    auto out = s.replicas.serve(vm::benign_request(a, b));
    (void)s.healer.write(s.ledger[i], 0, std::span{s.oversized}.first(64));
    if (out.has_value() && out.value().ret == a + b) return text("ok\n");
    return text("wrong\n");
  });
  // Control-flow hijack via hard-coded absolute address, or code injection
  // with a guessed tag — exactly what a remote attacker would send.
  gateway.add_route("/attack", [&s](const net::Gateway::Request& request) {
    const bool inject = net::http::query_param(request.query, "tag").has_value();
    const auto tag = static_cast<std::uint8_t>(param(request, "tag") % 4);
    std::lock_guard lock{s.m};
    s.replicas.reset();
    auto out = s.replicas.serve(
        inject ? vm::code_injection_attack(s.known_base, tag)
               : vm::absolute_address_attack(s.known_base));
    if (out.has_value() && out.value().ret == vm::kSecretValue) {
      return text("leak\n");  // the secret escaped: the defense failed
    }
    if (!out.has_value() &&
        out.error().kind == core::FailureKind::detected_attack) {
      return text("detected\n");
    }
    return text("survived\n");
  });
  // Heap smash against the ledger + direct credential overwrite.
  gateway.add_route("/smash", [&s](const net::Gateway::Request& request) {
    const std::size_t i = param(request, "i") % 16;
    const auto garbage = static_cast<std::int64_t>(param(request, "v"));
    std::lock_guard lock{s.m};
    auto status = s.healer.write(s.ledger[i], 32, s.oversized);
    const bool blocked = !status.has_value();
    s.credentials.smash_all_variants(0, garbage);
    bool caught = false;
    if (!s.credentials.read(0).has_value()) {
      caught = true;
      (void)s.credentials.write(0, 0x5ec7e7);  // operator restores the cell
    }
    return text(std::string{blocked ? "blocked" : "missed"} + " " +
                (caught ? "caught" : "leaked") + "\n");
  });
  // End-of-run accounting the client cannot see from response bodies.
  gateway.add_route("/final", [&s](const net::Gateway::Request&) {
    std::lock_guard lock{s.m};
    return text("detections=" + std::to_string(s.replicas.detections()) +
                " corrupted=" + std::to_string(s.heap.corrupted_blocks()) +
                "\n");
  });
}

}  // namespace

int main() {
  auto telemetry = core::start_live_telemetry_from_env();
  util::Rng rng{1337};

  Survivable state{/*seed=*/rng()};
  net::Gateway gateway;
  install_survivable_routes(gateway, state);
  if (!gateway.start()) {
    std::cerr << "survivable_server: gateway failed to start\n";
    return 1;
  }

  // The attacker/client side: one keep-alive connection through the real
  // front door, same 3000-request ~15%-hostile mix as always.
  const int fd = net::loopback::connect_loopback(gateway.port());
  if (fd < 0) {
    std::cerr << "survivable_server: loopback connect failed\n";
    return 1;
  }
  const auto exchange = [fd](const std::string& target) {
    if (!net::loopback::send_all(fd,
                                 "GET " + target + " HTTP/1.1\r\n\r\n")) {
      return std::string{};
    }
    const net::loopback::Reply reply = net::loopback::read_response(fd);
    return reply.complete ? reply.body : std::string{};
  };

  std::size_t benign_ok = 0, benign_total = 0;
  std::size_t attacks = 0, leaks = 0, detected = 0;
  std::size_t smashes_blocked = 0, cred_reads_blocked = 0;

  for (int t = 0; t < 3000; ++t) {
    const double dice = rng.uniform();
    if (dice < 0.85) {
      ++benign_total;
      const auto a = rng.below(1000);
      const auto b = rng.below(1000);
      const std::string body = exchange(
          "/vm?a=" + std::to_string(a) + "&b=" + std::to_string(b) +
          "&i=" + std::to_string(rng.below(16)));
      if (body == "ok\n") ++benign_ok;
    } else if (dice < 0.95) {
      ++attacks;
      const std::string target =
          dice < 0.90 ? "/attack"
                      : "/attack?tag=" + std::to_string(rng.below(4));
      const std::string body = exchange(target);
      if (body == "leak\n") ++leaks;
      if (body == "detected\n") ++detected;
    } else {
      ++attacks;
      const std::string body = exchange(
          "/smash?i=" + std::to_string(rng.below(16)) +
          "&v=" + std::to_string(rng()));
      if (body.rfind("blocked", 0) == 0) ++smashes_blocked;
      if (body.find("caught") != std::string::npos) {
        ++cred_reads_blocked;
      }
      ++detected;
    }
  }

  // Server-side tallies the wire cannot carry per-request.
  const std::string final_body = exchange("/final");
  std::size_t divergence_detections = 0, corrupted_blocks = 0;
  (void)std::sscanf(final_body.c_str(), "detections=%zu corrupted=%zu",
                    &divergence_detections, &corrupted_blocks);
  ::close(fd);
  gateway.stop();

  util::Table table{
      "survivable_server: 3000 requests via net::Gateway, ~15% hostile"};
  table.header({"metric", "value"});
  table.row({"benign served correctly", std::to_string(benign_ok) + "/" +
                                            std::to_string(benign_total)});
  table.row({"attacks launched", util::Table::count(attacks)});
  table.row({"secrets leaked", util::Table::count(leaks)});
  table.row({"attacks detected by replica divergence",
             util::Table::count(divergence_detections)});
  table.row({"heap smashes blocked by the healer",
             util::Table::count(smashes_blocked)});
  table.row({"credential corruptions caught by N-variant data",
             util::Table::count(cred_reads_blocked)});
  table.row({"ledger blocks corrupted", util::Table::count(corrupted_blocks)});
  table.print(std::cout);
  std::cout << (leaks == 0 && corrupted_blocks == 0
                    ? "Zero leaks, zero corrupted blocks: every attack was "
                      "detected or defused.\n"
                    : "SOME ATTACKS SUCCEEDED — see the table.\n");
  if (telemetry) core::linger_from_env();
  return (leaks == 0 && corrupted_blocks == 0) ? 0 : 1;
}
