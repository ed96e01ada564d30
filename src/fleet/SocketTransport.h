//===--- SocketTransport.h - AF_UNIX fleet transport -----------*- C++ -*-===//
//
// Part of the Chameleon-CXX project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The real transport for chameleon-agentd / chameleon-aggd: non-blocking
/// AF_UNIX stream sockets speaking the fleet wire framing. In-process
/// tests use Transport.h's InMemoryHub instead; this file is the only
/// place that touches socket syscalls.
///
/// Both halves are non-blocking: `send` buffers what the kernel won't take
/// and drains it on later calls, `receive` appends whatever is readable.
/// A peer hangup surfaces as receive() returning false after the final
/// drain — exactly the Connection contract.
///
//===----------------------------------------------------------------------===//

#ifndef CHAMELEON_FLEET_SOCKETTRANSPORT_H
#define CHAMELEON_FLEET_SOCKETTRANSPORT_H

#include "fleet/Transport.h"

#include <memory>
#include <string>
#include <vector>

namespace chameleon::fleet {

/// A connected non-blocking AF_UNIX stream socket.
class SocketConnection : public Connection {
public:
  /// Takes ownership of \p Fd (sets O_NONBLOCK).
  explicit SocketConnection(int Fd);
  ~SocketConnection() override;

  bool send(const std::string &Bytes) override;
  bool receive(std::string &Out) override;
  void close() override;

private:
  bool flushSendBuf();

  int Fd = -1;
  std::string SendBuf; ///< bytes the kernel hasn't accepted yet
  size_t SendPos = 0;
};

/// Dials an AF_UNIX path. dial() returns nullptr while nothing listens.
class SocketDialer : public Dialer {
public:
  explicit SocketDialer(std::string Path) : Path(std::move(Path)) {}

  std::unique_ptr<Connection> dial() override;

private:
  std::string Path;
};

/// The aggregator's listening socket. Unlinks any stale path on bind.
class SocketListener {
public:
  SocketListener() = default;
  ~SocketListener();

  /// Binds + listens on \p Path. False + \p Err on failure.
  bool listen(const std::string &Path, std::string &Err);

  /// Accepts every pending connection (non-blocking).
  std::vector<std::unique_ptr<Connection>> acceptAll();

  void close();
  bool listening() const { return Fd >= 0; }

private:
  int Fd = -1;
  std::string Path;
};

} // namespace chameleon::fleet

#endif // CHAMELEON_FLEET_SOCKETTRANSPORT_H
