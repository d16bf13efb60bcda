/**
 * @file
 * A tiny dependency-free blocking HTTP server for observability
 * endpoints (`xed_campaign serve`: /status.json, /metrics, /).
 *
 * Scope is deliberately minimal -- this is an operator dashboard for
 * a handful of humans and one Prometheus scraper, not a web server:
 *
 *  - HTTP/1.0 semantics: one request per connection, `Connection:
 *    close`, no keep-alive, no chunked encoding.
 *  - GET (and HEAD, answered without a body) only; anything else is
 *    405. Request headers are read and discarded; bodies are not
 *    supported (a 501-free simplification: GET/HEAD have none).
 *  - Single-threaded accept loop: requests are served strictly one
 *    at a time. A handler is a pure function of the request path, so
 *    there is no shared mutable state to race on. A connection that
 *    sends no bytes for 2 s while its request head is read is
 *    answered 400, so an idle client cannot stall the loop.
 *  - The handler never sees the connection: it maps a path string to
 *    (status, content type, body) and the server does the rest.
 *
 * stop() is async-signal-safe (shutdown + close on the listening
 * socket), so a SIGINT/SIGTERM handler can end run() cleanly -- the
 * blocked accept(2) fails, the loop notices the stop flag and
 * returns. Binding port 0 picks an ephemeral port; port() reports
 * the bound one so scripts can scrape a server they just spawned.
 */

#ifndef XED_OBS_HTTP_HH
#define XED_OBS_HTTP_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

namespace xed::obs
{

struct HttpResponse
{
    int status = 200;
    std::string contentType = "text/plain; charset=utf-8";
    std::string body;
};

/** 404 with a plain-text body naming the path. */
HttpResponse httpNotFound(const std::string &path);

class HttpServer
{
  public:
    /** Map a request path ("/status.json") to a response. Called on
     *  the accept thread, one request at a time. */
    using Handler = std::function<HttpResponse(const std::string &path)>;

    ~HttpServer();

    /**
     * Bind and listen on @p port (0 = ephemeral) on all interfaces.
     * Returns false with @p error on failure; on success port()
     * reports the actually bound port.
     */
    bool start(std::uint16_t port, Handler handler, std::string *error);

    /** Serve requests until stop(). Returns the number served. */
    std::uint64_t run();

    /**
     * Serve exactly one connection (used by tests and, in a loop, by
     * run()). Blocks in accept(2); returns false when the server was
     * stopped or accept failed.
     */
    bool serveOne();

    /** Unblock run()/serveOne() and release the socket. Safe to call
     *  from a signal handler or another thread. */
    void stop();

    std::uint16_t port() const { return port_; }
    bool running() const { return listenFd_.load() >= 0; }

  private:
    Handler handler_;
    std::atomic<int> listenFd_{-1};
    std::atomic<bool> stopping_{false};
    std::uint16_t port_ = 0;
};

} // namespace xed::obs

#endif // XED_OBS_HTTP_HH
