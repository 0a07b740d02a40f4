// gauss_shardd: a standalone Gauss-tree shard server.
//
// Opens one persisted shard — either a single .gauss file (--file=PATH) or
// one shard of a multi-device directory layout (--dir=PATH --shard=N) — and
// serves the binary shard protocol (src/net/README.md) on a listening TCP
// socket. A GaussDb::ServeRemote() coordinator on another host connects one
// RpcBackend per shardd and scatter-gathers MLIQ/TIQ queries across them,
// with refinement rounds batched one frame per shardd per round.
//
// Deployment: run one gauss_shardd per shard file, each close to its device:
//
//   hostA$ gauss_shardd --file=/data/shard-0000.gauss --port=7001
//   hostB$ gauss_shardd --file=/data/shard-0001.gauss --port=7001
//   front$ query_server --connect=hostA:7001,hostB:7001
//
// The server answers Start/Refine/Release/Stats requests from any number of
// coordinator connections concurrently; admission control (deadlines,
// shedding) stays at the coordinator. SIGINT/SIGTERM (or --max-seconds,
// handy for scripted smoke tests) shut the server down cleanly: in-flight
// requests drain, then the aggregate ServiceStats are printed.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <string>
#include <thread>

#include "api/gauss_db.h"
#include "net/shard_server.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --file=SHARD.gauss | --dir=PATH [--shard=N]\n"
      "          [--host=ADDR] [--port=P] [--workers=N]\n"
      "          [--cache-pages=N] [--max-seconds=S]\n"
      "\n"
      "Serves one Gauss-tree shard over the binary shard protocol.\n"
      "--port=0 (default) picks an ephemeral port and prints it.\n"
      "--max-seconds=0 (default) serves until SIGINT/SIGTERM.\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gauss;

  std::string file;
  std::string directory;
  size_t shard = 0;
  ShardServerOptions server_options;
  ServeOptions serve;
  serve.num_workers = 2;
  uint64_t max_seconds = 0;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--file=", 7) == 0) {
      file = arg + 7;
    } else if (std::strncmp(arg, "--dir=", 6) == 0) {
      directory = arg + 6;
    } else if (std::strncmp(arg, "--shard=", 8) == 0) {
      shard = static_cast<size_t>(std::atoll(arg + 8));
    } else if (std::strncmp(arg, "--host=", 7) == 0) {
      server_options.host = arg + 7;
    } else if (std::strncmp(arg, "--port=", 7) == 0) {
      server_options.port = static_cast<uint16_t>(std::atoi(arg + 7));
    } else if (std::strncmp(arg, "--workers=", 10) == 0) {
      serve.num_workers = static_cast<size_t>(std::atoll(arg + 10));
    } else if (std::strncmp(arg, "--cache-pages=", 14) == 0) {
      serve.cache_pages = static_cast<size_t>(std::atoll(arg + 14));
    } else if (std::strncmp(arg, "--max-seconds=", 14) == 0) {
      max_seconds = static_cast<uint64_t>(std::atoll(arg + 14));
    } else {
      Usage(argv[0]);
      return 1;
    }
  }
  if (file.empty() == directory.empty()) {  // exactly one source, please
    Usage(argv[0]);
    return 1;
  }

  // ---- Attach to the persisted shard. --------------------------------------
  GaussDb db = [&] {
    OpenResult opened = file.empty() ? GaussDb::OpenDirectory(directory)
                                     : GaussDb::OpenFile(file);
    if (!opened.ok()) {
      std::fprintf(stderr, "gauss_shardd: cannot open %s: %s (%s)\n",
                   file.empty() ? directory.c_str() : file.c_str(),
                   opened.error().message.c_str(),
                   OpenErrorCodeName(opened.error().code));
      std::exit(1);
    }
    return std::move(opened).value();
  }();

  // A shardd serves exactly one Gauss-tree. A sharded single-file image has
  // its trees interleaved in one device — partition it into per-shard files
  // (CreateOnDirectory) to distribute it.
  if (!file.empty() && db.sharded()) {
    std::fprintf(stderr,
                 "gauss_shardd: %s holds a sharded image; use a directory "
                 "layout (--dir=PATH --shard=N) to serve one shard of it\n",
                 file.c_str());
    return 1;
  }

  // ---- Serving stack + listening socket. -----------------------------------
  Session session = db.Serve(serve);
  if (shard >= session.num_shards()) {
    std::fprintf(stderr, "gauss_shardd: --shard=%zu out of range (%zu shards)\n",
                 shard, session.num_shards());
    return 1;
  }
  QueryService* service = session.shard_service(shard);

  NetError listen_error;
  std::unique_ptr<ShardServer> server =
      ShardServer::Listen(service, server_options, &listen_error);
  if (server == nullptr) {
    std::fprintf(stderr, "gauss_shardd: cannot listen on %s:%u: %s\n",
                 server_options.host.c_str(), server_options.port,
                 listen_error.message.c_str());
    return 1;
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  std::printf("gauss_shardd: serving %zu objects (dim %zu) on %s:%u\n",
              db.size(), db.dim(), server_options.host.c_str(),
              server->port());
  std::fflush(stdout);

  const auto started = std::chrono::steady_clock::now();
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (max_seconds != 0 &&
        std::chrono::steady_clock::now() - started >=
            std::chrono::seconds(max_seconds)) {
      break;
    }
  }

  server->Shutdown();
  std::printf("gauss_shardd: shut down\n%s", server->stats().ToString().c_str());
  return 0;
}
