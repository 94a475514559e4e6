#ifndef FOCUS_SHARD_SHARDED_API_H_
#define FOCUS_SHARD_SHARDED_API_H_

#include "serve/http_api.h"

namespace focus::shard {

// Old names of serve::HttpApi, kept because perfbench/ still spells them.
using ShardedApi = serve::HttpApi;
using ShardedApiOptions = serve::HttpApiOptions;

}  // namespace focus::shard

#endif  // FOCUS_SHARD_SHARDED_API_H_
