// The one compiled codec of every message in messages.h.
#include "wiera/messages.h"

namespace wiera::rpc {
#define WIERA_GEO_CODEC(T)                 \
  template Message encode(const geo::T&); \
  template Result<geo::T> decode<geo::T>(const Message&);
WIERA_GEO_MESSAGES(WIERA_GEO_CODEC)
#undef WIERA_GEO_CODEC
}  // namespace wiera::rpc
