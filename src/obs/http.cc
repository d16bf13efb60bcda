#include "obs/http.hh"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

namespace xed::obs
{

namespace
{

/** How long one recv(2) of a request head may wait for bytes. */
constexpr time_t headTimeoutSeconds = 2;

const char *
reasonPhrase(int status)
{
    switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 500: return "Internal Server Error";
    default: return "Unknown";
    }
}

/** Read until the blank line ending the request head, or give up at
 *  a hard cap (nobody legitimately sends us an 8 KiB GET head). */
bool
readRequestHead(int fd, std::string &head)
{
    constexpr std::size_t cap = 8192;
    char buf[512];
    while (head.size() < cap) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0)
            return false;
        head.append(buf, static_cast<std::size_t>(n));
        if (head.find("\r\n\r\n") != std::string::npos ||
            head.find("\n\n") != std::string::npos)
            return true;
    }
    return false;
}

bool
sendAll(int fd, const std::string &bytes)
{
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        const ssize_t n = ::send(fd, bytes.data() + sent,
                                 bytes.size() - sent, MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

HttpResponse
httpNotFound(const std::string &path)
{
    HttpResponse response;
    response.status = 404;
    response.body = "not found: " + path + "\n";
    return response;
}

HttpServer::~HttpServer()
{
    stop();
}

bool
HttpServer::start(std::uint16_t port, Handler handler,
                  std::string *error)
{
    handler_ = std::move(handler);
    stopping_.store(false);

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        if (error)
            *error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(port);
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof addr) != 0) {
        if (error)
            *error = "bind port " + std::to_string(port) + ": " +
                     std::strerror(errno);
        ::close(fd);
        return false;
    }
    if (::listen(fd, 16) != 0) {
        if (error)
            *error = std::string("listen: ") + std::strerror(errno);
        ::close(fd);
        return false;
    }
    socklen_t len = sizeof addr;
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len) !=
        0) {
        if (error)
            *error = std::string("getsockname: ") + std::strerror(errno);
        ::close(fd);
        return false;
    }
    port_ = ntohs(addr.sin_port);
    listenFd_.store(fd);
    return true;
}

bool
HttpServer::serveOne()
{
    const int listenFd = listenFd_.load();
    if (listenFd < 0 || stopping_.load())
        return false;
    const int fd = ::accept(listenFd, nullptr, nullptr);
    if (fd < 0)
        return false; // stopped (socket closed under us) or transient
    if (stopping_.load()) {
        ::close(fd);
        return false;
    }
    // The loop serves one connection at a time, so a client that
    // connects and sends nothing (a browser preconnect) would block
    // every other request. Its head read times out and it gets a 400.
    timeval timeout{};
    timeout.tv_sec = headTimeoutSeconds;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);

    std::string head;
    HttpResponse response;
    bool headOnly = false;
    if (!readRequestHead(fd, head)) {
        response.status = 400;
        response.body = "malformed request\n";
    } else {
        // "GET /path HTTP/1.x" -- method and path only.
        const std::size_t methodEnd = head.find(' ');
        const std::size_t pathEnd =
            methodEnd == std::string::npos
                ? std::string::npos
                : head.find_first_of(" \r\n", methodEnd + 1);
        const std::string method =
            methodEnd == std::string::npos ? ""
                                           : head.substr(0, methodEnd);
        std::string path =
            pathEnd == std::string::npos
                ? ""
                : head.substr(methodEnd + 1, pathEnd - methodEnd - 1);
        // Query strings are not part of any endpoint's contract;
        // strip them so "/status.json?x=1" still resolves.
        const std::size_t query = path.find('?');
        if (query != std::string::npos)
            path.resize(query);
        headOnly = method == "HEAD";
        if (path.empty()) {
            response.status = 400;
            response.body = "malformed request line\n";
        } else if (method != "GET" && method != "HEAD") {
            response.status = 405;
            response.body = "only GET is supported\n";
        } else {
            try {
                response = handler_(path);
            } catch (const std::exception &e) {
                response = HttpResponse{};
                response.status = 500;
                response.body =
                    std::string("handler failed: ") + e.what() + "\n";
            }
        }
    }

    std::string reply = "HTTP/1.0 " + std::to_string(response.status) +
                        " " + reasonPhrase(response.status) +
                        "\r\nContent-Type: " + response.contentType +
                        "\r\nContent-Length: " +
                        std::to_string(response.body.size()) +
                        "\r\nConnection: close\r\n\r\n";
    if (!headOnly)
        reply += response.body;
    sendAll(fd, reply);
    ::shutdown(fd, SHUT_WR);
    ::close(fd);
    return true;
}

std::uint64_t
HttpServer::run()
{
    std::uint64_t served = 0;
    while (serveOne())
        ++served;
    return served;
}

void
HttpServer::stop()
{
    stopping_.store(true);
    const int fd = listenFd_.exchange(-1);
    if (fd >= 0) {
        // Both calls are async-signal-safe; shutdown unblocks a
        // concurrent accept(2) on platforms where close alone
        // would not.
        ::shutdown(fd, SHUT_RDWR);
        ::close(fd);
    }
}

} // namespace xed::obs
