// Trace explorer: generate a synthetic YouTube-like catalog, crawl it the
// way the paper crawled YouTube (BFS over subscription->owner links), and
// print the social-network statistics of §III side by side for the full
// graph and the crawled sample.
//
//   ./examples/trace_explorer [--users 2031] [--seed 7] [--max-crawl 500]
#include <cstdio>

#include "trace/crawler.h"
#include "trace/io.h"
#include "trace/generator.h"
#include "trace/stats.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  const st::Flags flags(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.error().c_str());
    return 1;
  }
  st::trace::GeneratorParams params;
  params.numUsers = 2'031;  // the paper's crawl size
  params.numChannels = 545;
  params.numVideos = 20'000;
  params = params.scaledTo(
      static_cast<std::size_t>(flags.getInt("users", 2'031, 1)));
  params.seed = static_cast<std::uint64_t>(flags.getInt("seed", 7));
  const auto maxCrawl =
      static_cast<std::size_t>(flags.getInt("max-crawl", 0));
  const std::string savePath = flags.getString("save", "");
  const std::string loadPath = flags.getString("load", "");

  st::trace::Catalog catalog;
  if (!loadPath.empty()) {
    auto loaded = st::trace::loadCatalogFile(loadPath);
    if (!loaded) {
      std::fprintf(stderr, "failed to load trace from %s\n",
                   loadPath.c_str());
      return 1;
    }
    catalog = std::move(*loaded);
    std::printf("Loaded catalog from %s\n", loadPath.c_str());
  } else {
    catalog = st::trace::generateTrace(params);
  }
  if (!savePath.empty()) {
    if (!st::trace::saveCatalogFile(catalog, savePath)) {
      std::fprintf(stderr, "failed to save trace to %s\n", savePath.c_str());
      return 1;
    }
    std::printf("Saved catalog to %s\n", savePath.c_str());
  }
  std::printf("Generated catalog: %zu users, %zu channels, %zu videos, "
              "%zu categories\n\n", catalog.userCount(),
              catalog.channelCount(), catalog.videoCount(),
              catalog.categoryCount());

  const st::trace::TraceStats stats(catalog);
  const auto views = stats.viewsPerVideo();
  const auto subs = stats.subscribersPerChannel();
  const auto similarity = stats.userChannelSimilarity();
  std::printf("views/video   p50=%.0f p90=%.0f p99=%.3g\n",
              views.percentile(50), views.percentile(90),
              views.percentile(99));
  std::printf("subs/channel  p25=%.0f p50=%.0f p75=%.0f\n",
              subs.percentile(25), subs.percentile(50), subs.percentile(75));
  std::printf("similarity    p25=%.2f p50=%.2f p75=%.2f\n\n",
              similarity.percentile(25), similarity.percentile(50),
              similarity.percentile(75));

  const st::trace::CrawlResult crawl = st::trace::crawl(
      catalog, {.seed = params.seed, .maxUsers = maxCrawl});
  std::printf("BFS crawl (paper methodology): visited %zu users, "
              "%zu channels, %zu videos", crawl.users.size(),
              crawl.channels.size(), crawl.videos.size());
  if (crawl.frontierTruncated > 0) {
    std::printf(" (frontier truncated with %zu queued)",
                crawl.frontierTruncated);
  }
  std::printf("\n");

  // Distribution shape of the crawled sample vs the full catalog.
  st::SampleSet sampleViews;
  for (const st::VideoId video : crawl.videos) {
    sampleViews.add(catalog.video(video).views);
  }
  if (!sampleViews.empty()) {
    std::printf("crawled views/video p50=%.0f p90=%.0f "
                "(full graph: p50=%.0f p90=%.0f)\n",
                sampleViews.percentile(50), sampleViews.percentile(90),
                views.percentile(50), views.percentile(90));
    std::printf("\nAs Mislove et al. observed (and the paper relies on), "
                "the truncated BFS\nsample preserves the distribution "
                "shapes used in Figs. 2-13.\n");
  }
  return 0;
}
